import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonosc import AnyonParams, ConfigError, RunConfig, config_from_dict
from anyonosc.output import (csv_text, metadata_document, read_csv,
                             svg_heatmap, validate_metadata, write_csv,
                             write_grid_svg, write_metadata)
from anyonosc.dimer import CONJUGATION_CONVENTIONS, FREQUENCY_CONVENTIONS
from anyonosc.fock import JUMP_BASES
from anyonosc.spectra import GridSpec
from anyonosc.sweeps import (GENERATORS, PARAM_FIELDS, Conventions, SweepAxis, parse_range,
                             run_fig1, run_fig2, run_fig3, run_sweep)


def _number(lo, hi):
    """Ints or floats in [lo, hi]: a library config may hold either."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _grid_or_none(count, ends):
    """GridSpec over the sorted ends, or None where GridSpec refuses the range."""
    try:
        return GridSpec(count, *sorted(ends))
    except ValueError:
        return None


def _axis_or_none(name, ends, count):
    """SweepAxis over the ends, or None where SweepAxis refuses the span."""
    try:
        return SweepAxis(name, *ends, count)
    except ConfigError:
        return None


_conventions = st.builds(Conventions, st.sampled_from(FREQUENCY_CONVENTIONS),
                         st.sampled_from(CONJUGATION_CONVENTIONS), st.sampled_from(JUMP_BASES),
                         st.booleans())
_run_configs = st.builds(
    RunConfig,
    params=st.builds(AnyonParams, theta=_number(0.0, math.pi), omega=_number(1e-3, 1e3),
                     coupling_j=_finite, gamma=_number(0.0, 1e3), beta=_number(1e-3, 1e3),
                     xi=_number(-1.0, 1.0)),
    sweep=st.lists(st.builds(_axis_or_none, st.sampled_from(PARAM_FIELDS),
                             st.tuples(_finite, _finite), st.integers(2, 10_000))
                   .filter(lambda axis: axis is not None), max_size=3,
                   unique_by=lambda axis: axis.name).map(tuple),
    conventions=_conventions,
    output_path=st.none() | st.text(),
    threads=st.integers(1, 64), cutoff=st.integers(1, 8),
    grid=st.builds(_grid_or_none, st.integers(2, 4096),
                   st.tuples(_finite, _finite)).filter(lambda grid: grid is not None),
    t2=_number(0.0, 1e6),
    theta_list=st.lists(_number(0.0, math.pi), max_size=4).map(tuple),
    xi_list=st.lists(_number(-1.0, 1.0), max_size=4).map(tuple))


class TestConfig:
    @settings(deadline=None)
    @given(_run_configs)
    def test_sha256_survives_the_json_echo(self, cfg):
        assert config_from_dict(cfg.as_dict()).sha256() == cfg.sha256()

    def test_defaults_round_trip(self):
        cfg = config_from_dict({})
        assert cfg.params.theta == 0.0
        assert cfg.conventions.conjugation == "modulus"
        assert cfg.sha256() == config_from_dict({}).sha256()

    def test_unknown_top_level_key_is_hard_error(self):
        with pytest.raises(ConfigError):
            config_from_dict({"paramz": {}})

    def test_unknown_param_key_is_hard_error(self):
        with pytest.raises(ConfigError):
            config_from_dict({"params": {"theta": 0.1, "gama": 0.2}})

    def test_unknown_convention_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"conventions": {"conjugation": "sloppy"}})

    @pytest.mark.parametrize("build, message", [
        (lambda: Conventions(frequency="printed"), "unknown frequency convention"),
        (lambda: Conventions(conjugation="sloppy"), "unknown conjugation convention"),
        (lambda: Conventions(jump_basis="normal"), "unknown jump basis"),
        (lambda: RunConfig(threads=0), "threads must be >= 1, got 0"),
        (lambda: RunConfig(cutoff=0), "cutoff must be >= 1, got 0"),
        (lambda: dataclasses.replace(RunConfig(), threads=-4), "threads must be >= 1"),
        (lambda: RunConfig(sweep=(SweepAxis("xi", -1.0, 1.0, 3), SweepAxis("beta", 1.0, 2.0, 2),
                                  SweepAxis("xi", 0.0, 1.0, 2))),
         "sweep axes name parameter 'xi' more than once"),
        (lambda: config_from_dict({"sweep": [
            {"name": "theta", "start": 0, "stop": 1, "count": 2},
            {"name": "theta", "start": 0, "stop": 3, "count": 3}]}),
         "sweep axes name parameter 'theta' more than once"),
    ], ids=["frequency", "conjugation", "jump-basis", "threads", "cutoff", "replace",
            "axis-twice", "axis-twice-json"])
    def test_config_types_check_themselves(self, build, message):
        with pytest.raises(ConfigError, match=message):
            build()

    def test_config_types_are_frozen(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.threads = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.conventions.frequency = "maintext"

    def test_sweep_axis_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": [{"name": "nope", "start": 0, "stop": 1, "count": 5}]})
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": [{"name": "theta", "start": 0, "stop": 1, "count": 1}]})
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": [{"name": "theta", "start": 0, "stop": 1}]})
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict({"sweep": [{"name": "xi", "start": -math.inf, "stop": 1,
                                         "count": 5}]})
        with pytest.raises(ConfigError, match="'coupling_j' needs finite endpoints and span"):
            SweepAxis("coupling_j", -1e308, 1e308, 3)

    def test_physical_validation_propagates(self):
        with pytest.raises(ConfigError):
            config_from_dict({"params": {"theta": 9.0}})

    def test_parse_range(self):
        # lo:hi only: a point count comes from --grid, never from the range
        assert parse_range("0:3.14") == (0.0, 3.14)
        assert parse_range("-0.5:0.5") == (-0.5, 0.5)
        for text in ("0:3.14:100", "1:2:3:4", "0.5"):
            with pytest.raises(ConfigError, match=f"--range takes lo:hi, got {text!r}"):
                parse_range(text)


class TestFig1:
    def test_endpoints_and_monotonicity(self):
        cfg = RunConfig(params=AnyonParams(theta=0.0),
                        sweep=(SweepAxis("theta", 0.0, math.pi, 200),))
        res = run_fig1(cfg)
        stat = res.column("gamma_stat")
        assert stat[0] == 0.0
        n_f = 1.0 / (math.e + 1.0)
        assert stat[-1] == pytest.approx(0.1 * n_f, abs=1e-12)
        assert all(b >= a - 1e-15 for a, b in zip(stat, stat[1:]))

    def test_row_count_and_finiteness(self):
        cfg = RunConfig(params=AnyonParams(theta=0.0),
                        sweep=(SweepAxis("theta", 0.0, math.pi, 64),))
        res = run_fig1(cfg)
        assert res.rows.shape == (64, 4) and res.rows.dtype == np.float64

    def test_a_bad_result_refuses_itself(self):
        # the writer's checks happen where a result is made
        from anyonosc.sweeps import SweepResult
        with pytest.raises(FloatingPointError):
            SweepResult(("a", "b"), ("1", "1"), [(0.0, 1.0), (1.0, float("nan"))])
        with pytest.raises(ValueError, match="row width"):
            SweepResult(("a", "b"), ("1", "1"), [(0.0, 1.0, 2.0)])
        res = SweepResult(("a", "b"), ("1", "1"), [(0.0, 1.0)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.rows = [(0.0, 1.0, 2.0)]

    def test_closed_form_sweep_is_fast(self):
        import time
        cfg = RunConfig(params=AnyonParams(theta=0.0),
                        sweep=(SweepAxis("theta", 0.0, math.pi, 200),))
        t0 = time.perf_counter()
        run_fig1(cfg)
        assert time.perf_counter() - t0 < 0.5


class TestFig2:
    def test_equal_rates_without_correlation(self):
        cfg = RunConfig(params=AnyonParams(theta=0.0), xi_list=(0.0,),
                        sweep=(SweepAxis("theta", 0.0, math.pi - 0.02, 101),))
        res = run_fig2(cfg)
        rp, rm = res.column("re_lambda_plus"), res.column("re_lambda_minus")
        assert np.max(np.abs(rp - rm)) <= 1e-12

    def test_bifurcation_onset_past_two(self):
        cfg = RunConfig(params=AnyonParams(theta=0.0), xi_list=(1.0,),
                        sweep=(SweepAxis("theta", 0.0, math.pi - 0.01, 400),))
        res = run_fig2(cfg)
        theta = res.column("theta")
        split = np.abs(res.column("re_lambda_plus") - res.column("re_lambda_minus"))
        onset = theta[np.argmax(split > 1e-6)]
        assert 2.0 < onset < math.pi

    def test_multiset_invariant_under_correlation_sign(self):
        base = RunConfig(params=AnyonParams(theta=0.0),
                         sweep=(SweepAxis("theta", 0.1, 3.0, 40),))
        plus = run_fig2(RunConfig(params=base.params, sweep=base.sweep, xi_list=(0.7,)))
        minus = run_fig2(RunConfig(params=base.params, sweep=base.sweep, xi_list=(-0.7,)))
        for pr, mr in zip(plus.rows, minus.rows):
            lp = complex(pr[2], pr[4]), complex(pr[3], pr[5])
            lm = complex(mr[2], mr[4]), complex(mr[3], mr[5])
            direct = max(abs(lp[0] - lm[0]), abs(lp[1] - lm[1]))
            swapped = max(abs(lp[0] - lm[1]), abs(lp[1] - lm[0]))
            assert min(direct, swapped) <= 1e-12

    def test_branches_are_continuous(self):
        cfg = RunConfig(params=AnyonParams(theta=0.0), xi_list=(1.0,),
                        sweep=(SweepAxis("theta", 0.0, math.pi - 0.01, 300),))
        res = run_fig2(cfg)
        lam1 = res.column("re_lambda_plus") + 1j * res.column("im_lambda_plus")
        jumps = np.abs(np.diff(lam1))
        assert np.max(jumps) < 0.1  # no branch swap discontinuities


class TestFig3:
    def test_shapes_and_metadata(self):
        cfg = RunConfig(params=AnyonParams(theta=0.0), cutoff=2,
                        grid=GridSpec(count=16), theta_list=(0.0, 1.5), xi_list=(0.0,))
        out, overlay = run_fig3(cfg), GENERATORS["fig3-overlay"](cfg)
        assert len(out.grids) == 2
        assert len(out.rows) == 2 * 16
        assert overlay.columns[0] == "theta"
        # the grid block holds only what the config echo cannot show, and
        # the slices carry the same block as every panel
        for _, _, g in out.grids:
            assert set(g.metadata) == {"rho_eq", "frequency", "axes", "first_interval_axis",
                                       "prefactor"}
            assert g.metadata == out.metadata["grid"]
        assert "grid" not in overlay.metadata

    def test_cutoff_validation(self):
        # the pathway's own check, before any panel is computed
        with pytest.raises(ValueError, match="two-excitation manifold: cutoff >= 2"):
            run_fig3(RunConfig(params=AnyonParams(theta=0.0), cutoff=1))


class TestGenericSweep:
    def test_two_axis_product(self):
        cfg = RunConfig(params=AnyonParams(theta=0.0),
                        sweep=(SweepAxis("theta", 0.0, 3.0, 5),
                               SweepAxis("xi", -1.0, 1.0, 3)))
        res = run_sweep(cfg)
        assert len(res.rows) == 15
        assert res.columns[:2] == ("theta", "xi")

    def test_requires_axes(self):
        with pytest.raises(ConfigError):
            run_sweep(RunConfig(params=AnyonParams(theta=0.0)))

    @pytest.mark.parametrize("change, key", [
        ({"t2": 3.0}, "t2"), ({"grid": GridSpec(count=8)}, "grid"),
        ({"theta_list": (0.5,)}, "theta_list"), ({"xi_list": (0.0,)}, "xi_list"),
        ({"cutoff": 3}, "compute.cutoff"),
    ])
    def test_a_key_the_sweep_does_not_read_is_refused(self, change, key):
        cfg = RunConfig(sweep=(SweepAxis("theta", 0.0, 3.0, 5),), **change)
        with pytest.raises(ConfigError, match=rf"does not read: \['{key}'\]"):
            run_sweep(cfg)
        # explicit defaults are what the sweep reads anyway
        defaults = RunConfig()
        run_sweep(dataclasses.replace(cfg, **{k: getattr(defaults, k) for k in change}))

    def test_determinism_across_threads(self):
        cfg1 = RunConfig(params=AnyonParams(theta=0.0), threads=1,
                         sweep=(SweepAxis("theta", 0.0, 3.0, 50),))
        cfg8 = RunConfig(params=AnyonParams(theta=0.0), threads=8,
                         sweep=(SweepAxis("theta", 0.0, 3.0, 50),))
        assert csv_text(run_sweep(cfg1)) == csv_text(run_sweep(cfg8))


class TestCsvRoundTrip:
    def test_bit_exact_reparse(self, tmp_path):
        cfg = RunConfig(params=AnyonParams(theta=0.0),
                        sweep=(SweepAxis("theta", 0.0, math.pi, 37),))
        res = run_fig1(cfg)
        path = tmp_path / "fig1.csv"
        write_csv(res, str(path))
        cols, units, rows = read_csv(str(path))
        assert cols == res.columns
        assert units == res.units
        for got, want in zip(rows, res.rows):
            for g, w in zip(got, want):
                assert g == w  # bit-exact through 17 significant digits

    def test_quoting(self, tmp_path):
        from anyonosc.sweeps import SweepResult
        res = SweepResult(columns=('weird,"name', "b"), units=("u,1", "u2"),
                          rows=[(1.0, 2.0)], metadata={})
        path = tmp_path / "q.csv"
        write_csv(res, str(path))
        cols, units, rows = read_csv(str(path))
        assert cols[0] == 'weird,"name'
        assert rows[0] == (1.0, 2.0)

    def test_lf_line_endings(self, tmp_path):
        cfg = RunConfig(params=AnyonParams(theta=0.0),
                        sweep=(SweepAxis("theta", 0.0, 1.0, 4),))
        path = tmp_path / "x.csv"
        write_csv(run_fig1(cfg), str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestWriteOutputs:
    def test_writes_csv_and_sidecar(self, tmp_path):
        from anyonosc.output import write_outputs
        cfg = RunConfig(params=AnyonParams(theta=0.0),
                        sweep=(SweepAxis("theta", 0.0, 1.0, 5),))
        res = run_fig1(cfg)
        paths = write_outputs(res, cfg, str(tmp_path / "out.csv"),
                              timestamp="2026-01-01T00:00:00+00:00")
        assert len(paths) == 2
        assert (tmp_path / "out.csv").exists()
        validate_metadata(json.loads((tmp_path / "out.csv.meta.json").read_text()))


class TestMetadata:
    def test_sidecar_validates_against_schema(self, tmp_path):
        cfg = RunConfig(params=AnyonParams(theta=0.0),
                        sweep=(SweepAxis("theta", 0.0, 1.0, 8),))
        res = run_fig1(cfg)
        path = tmp_path / "m.json"
        write_metadata(res, cfg, str(path), timestamp="2026-01-01T00:00:00+00:00")
        doc = json.loads(path.read_text())
        validate_metadata(doc)
        assert doc["created"] == "2026-01-01T00:00:00+00:00"
        assert doc["conventions"]["conjugation"] == "modulus"

    def test_missing_key_rejected(self):
        cfg = RunConfig(params=AnyonParams(theta=0.0))
        res = run_fig1(RunConfig(params=AnyonParams(theta=0.0),
                                 sweep=(SweepAxis("theta", 0.0, 1.0, 4),)))
        doc = metadata_document(res, cfg)
        del doc["config_sha256"]
        with pytest.raises(ValueError):
            validate_metadata(doc)

    def test_fixed_timestamp_makes_sidecar_deterministic(self, tmp_path):
        cfg = RunConfig(params=AnyonParams(theta=0.0),
                        sweep=(SweepAxis("theta", 0.0, 1.0, 8),))
        res = run_fig1(cfg)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_metadata(res, cfg, str(a), timestamp="2026-01-01T00:00:00+00:00")
        write_metadata(res, cfg, str(b), timestamp="2026-01-01T00:00:00+00:00")
        assert a.read_bytes() == b.read_bytes()


class TestSvg:
    def test_self_contained_and_well_formed(self, tmp_path):
        import xml.etree.ElementTree as ET
        x = np.linspace(-0.5, 0.5, 32)
        z = np.exp(-((x[:, None]) ** 2 + (x[None, :]) ** 2) / 0.02)
        svg = svg_heatmap(x, z, title="test", diagonal=True)
        ET.fromstring(svg)  # parses as XML
        assert "http://" not in svg.replace("http://www.w3.org/2000/svg", "")
        assert "<polyline" in svg

    def test_large_grid_under_two_megabytes(self, tmp_path):
        from anyonosc import AnyonParams, GridSpec, rephasing_response
        from anyonosc.output import write_grid_svg
        g = rephasing_response(AnyonParams(theta=1.0, xi=0.5), grid=GridSpec(count=256))
        path = tmp_path / "grid.svg"
        write_grid_svg(g, str(path), title="Re R3")
        assert path.stat().st_size < 2_000_000

    def test_non_finite_values_rejected(self):
        z = np.zeros((4, 4))
        z[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            svg_heatmap(np.arange(4), z)

    @pytest.mark.parametrize("points, shape", [(4, (6, 6)), (6, (4, 6)), (6, (6,)), (1, (1, 1))],
                             ids=["grid-wider-than-axis", "not-square", "one-dimensional",
                                  "one-point"])
    def test_grid_off_its_axis_rejected(self, points, shape):
        with pytest.raises(ValueError, match="n x n grid on an axis of n >= 2 points"):
            svg_heatmap(np.linspace(-0.5, 0.5, points), np.ones(shape))

    @pytest.mark.parametrize("axis", [np.zeros(3), np.array([0.0, 0.5, np.nan]),
                                      np.array([-1e308, 0.0, 1e308])],
                             ids=["zero-span", "nan-end", "span-overflows"])
    def test_axis_without_a_finite_nonzero_span_rejected(self, axis):
        # the ticks and the diagonal divide by the span
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite, nonzero span"):
                svg_heatmap(axis, np.eye(3), diagonal=True)

    def test_title_is_escaped(self):
        import xml.etree.ElementTree as ET
        svg = svg_heatmap(np.linspace(-0.5, 0.5, 3), np.eye(3), title="a<b & c>d")
        texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == "a<b & c>d"
        assert "a&lt;b &amp; c&gt;d" in svg


def _sibling_imports(path):
    """The package modules one module imports, at any depth of its code
    (``from . import __version__`` reads the package, not a module)."""
    import ast
    names = set()
    for node in ast.walk(ast.parse(open(path, encoding="utf-8").read())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            names.add(node.module)
    return names


class TestModuleStructure:
    def test_package_imports_form_no_cycle(self):
        import anyonosc
        root = os.path.dirname(anyonosc.__file__)
        graph = {name[:-3]: _sibling_imports(os.path.join(root, name))
                 for name in os.listdir(root) if name.endswith(".py") and name != "__init__.py"}
        assert "sweeps" not in graph["output"]
        done = set()

        def visit(module, path):
            assert module not in path, f"import cycle {' -> '.join(path + (module,))}"
            if module not in done:
                for dep in graph[module]:
                    visit(dep, path + (module,))
                done.add(module)

        for module in graph:
            visit(module, ())

    def test_sweep_result_lives_in_output(self):
        import anyonosc.cli
        import anyonosc.output
        import anyonosc.sweeps
        assert anyonosc.sweeps.SweepResult is anyonosc.output.SweepResult
        # the spectrum command and every fig3 panel go through run_spectrum
        assert not hasattr(anyonosc.cli, "FockSystem")
        assert not hasattr(anyonosc.cli, "rephasing_response")
