"""The package's public surface: what ``from anyonosc import *`` gives."""

import pytest

import anyonosc
from anyonosc import (AnyonParams, FockSystem, GridSpec, build_dipole,
                      rephasing_response)


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from anyonosc import *", namespace)
    for name in anyonosc.__all__:
        assert namespace[name] is getattr(anyonosc, name)


@pytest.mark.parametrize("name", ["DensityState", "propagate", "steady_state"])
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
