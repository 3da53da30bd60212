"""The package's public surface: what ``from anyonosc import *`` gives."""

import dataclasses
import os
import re

import numpy as np
import pytest

import anyonosc
from anyonosc import (AnyonParams, EffectiveMatrix, FockSystem, GridSpec, build_dipole,
                      build_weff, find_exceptional_point, fit_decay_rate,
                      rephasing_response)
from anyonosc.output import svg_heatmap
from anyonosc.rates import phase_average_series
from anyonosc.spectra import rephasing_response_quadrature, response_point


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from anyonosc import *", namespace)
    for name in anyonosc.__all__:
        assert namespace[name] is getattr(anyonosc, name)


@pytest.mark.parametrize("name", ["DensityState", "propagate", "steady_state", "ComplexRate",
                                  "eigen_analysis", "bright_mode_overlay", "ParamArrays"])
def test_removed_names_are_not_exported(name):
    assert name not in anyonosc.__all__
    assert not hasattr(anyonosc, name)


@pytest.mark.parametrize("keyword", [{"rho_eq": "vacuum"}, {"threads": 1}],
                         ids=["rho_eq", "threads"])
def test_spectrum_takes_no_start_or_thread_argument(keyword):
    with pytest.raises(TypeError, match=next(iter(keyword))):
        rephasing_response(AnyonParams(theta=0.3), grid=GridSpec(count=4), **keyword)


# the spectra build their own system and dipole from the parameter point, so
# the angle, the dipole's conjugation and the truncation cannot disagree with it
@pytest.mark.parametrize("call", [
    lambda system, dip: rephasing_response(system, dip, AnyonParams(theta=0.3)),
    lambda system, dip: response_point(system, dip, AnyonParams(theta=0.3), 0.1, 0.2),
    lambda system, dip: rephasing_response(AnyonParams(theta=0.3), system=system),
    lambda system, dip: response_point(AnyonParams(theta=0.3), 0.1, 0.2, dipole=dip),
], ids=["grid-positional", "point-positional", "grid-system", "point-dipole"])
def test_spectra_take_no_system_or_dipole(call):
    system = FockSystem(cutoff=2, theta=0.3, modes=2)
    with pytest.raises(TypeError):
        call(system, build_dipole(system))


def _quadrature(**kw):
    system = FockSystem(cutoff=2, theta=0.3, modes=2)
    return rephasing_response_quadrature(system, build_dipole(system), AnyonParams(theta=0.3),
                                         np.zeros(1), **kw)


# each was a keyword that only its default reached outside the tests: now a constant
@pytest.mark.parametrize("call, keyword", [
    (lambda **kw: find_exceptional_point(AnyonParams(theta=0.0), **kw), {"coarse_points": 64}),
    (_quadrature, {"dt": 0.1}),
    (lambda **kw: fit_decay_rate(np.arange(3.0), np.ones(3, complex), **kw),
     {"residual_tol": 0.1}),
    (lambda **kw: phase_average_series(0.5, 0.3, **kw), {"tol": 1e-10}),
    (lambda **kw: svg_heatmap(np.arange(2.0), np.eye(2), **kw), {"xlabel": "x"}),
    # every heatmap is square and overlays at most the diagonal
    (lambda **kw: svg_heatmap(np.arange(2.0), np.eye(2), **kw),
     {"overlays": [(np.arange(2.0), np.arange(2.0))]}),
], ids=["coarse_points", "dt", "residual_tol", "tol", "xlabel", "overlays"])
def test_one_value_keywords_are_gone(call, keyword):
    with pytest.raises(TypeError, match=next(iter(keyword))):
        call(**keyword)


def test_effective_matrix_is_built_whole():
    w = build_weff(AnyonParams(theta=0.5, xi=0.3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.eigenvalues = (0.0, 0.0)
    assert isinstance(w, EffectiveMatrix)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the README's two python blocks, in order, in one namespace
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "grid.csv.meta.json"]
    assert "LineshapeMetrics(" in capsys.readouterr().out
