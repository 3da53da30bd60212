"""The package's public surface: what ``from anyonosc import *`` gives."""

import dataclasses

import numpy as np
import pytest

import anyonosc
from anyonosc import (AnyonParams, EffectiveMatrix, FockSystem, GridSpec, build_dipole,
                      build_weff, find_exceptional_point, fit_decay_rate,
                      rephasing_response)
from anyonosc.output import svg_heatmap
from anyonosc.rates import phase_average_series
from anyonosc.spectra import rephasing_response_quadrature


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from anyonosc import *", namespace)
    for name in anyonosc.__all__:
        assert namespace[name] is getattr(anyonosc, name)


@pytest.mark.parametrize("name", ["DensityState", "propagate", "steady_state", "ComplexRate",
                                  "eigen_analysis"])
def test_removed_names_are_not_exported(name):
    assert name not in anyonosc.__all__
    assert not hasattr(anyonosc, name)


@pytest.mark.parametrize("keyword", [{"rho_eq": "vacuum"}, {"threads": 1}],
                         ids=["rho_eq", "threads"])
def test_spectrum_takes_no_start_or_thread_argument(keyword):
    system = FockSystem(cutoff=2, theta=0.3, modes=2)
    with pytest.raises(TypeError, match=next(iter(keyword))):
        rephasing_response(system, build_dipole(system), AnyonParams(theta=0.3),
                           grid=GridSpec(count=4), **keyword)


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
    (lambda **kw: svg_heatmap(np.arange(2.0), np.arange(2.0), np.eye(2), **kw),
     {"xlabel": "x"}),
], ids=["coarse_points", "dt", "residual_tol", "tol", "xlabel"])
def test_one_value_keywords_are_gone(call, keyword):
    with pytest.raises(TypeError, match=next(iter(keyword))):
        call(**keyword)


def test_effective_matrix_is_built_whole():
    w = build_weff(AnyonParams(theta=0.5, xi=0.3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.eigenvalues = (0.0, 0.0)
    assert isinstance(w, EffectiveMatrix)
