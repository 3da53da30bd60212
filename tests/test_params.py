"""AnyonParams as the one parameter record: a point of scalars, or an open grid
as soon as one field is an array, and the calls that take only a point."""

import dataclasses
import math
import re

import numpy as np
import pytest

from anyonosc import (AnyonParams, FockSystem, build_liouvillian, build_weff,
                      find_exceptional_point, rephasing_response)
from anyonosc.spectra import response_point


def test_a_record_of_scalars_keeps_its_scalars():
    p = AnyonParams(theta=0.5, beta=2, xi=np.float64(0.25))
    assert [getattr(p, f.name) for f in dataclasses.fields(p)] == [0.5, 1.0, 0.2, 0.1, 2, 0.25]
    assert type(p.beta) is int and type(p.theta) is float
    assert p.z == math.exp(-2.0)


def test_one_array_field_makes_every_field_an_array():
    p = AnyonParams(theta=0.5).with_(xi=[0.0, 0.5])
    assert all(isinstance(getattr(p, f.name), np.ndarray)
               and getattr(p, f.name).dtype == np.float64 for f in dataclasses.fields(p))
    assert p.theta.shape == (1,) and p.xi.shape == (2,)
    assert p.z.shape == (1,)
    # a 0-d array is a grid of shape (): arrays throughout, and still one point
    q = AnyonParams(theta=np.array(0.5))
    assert q.omega.shape == () and isinstance(q.omega, np.ndarray)
    q.require_point("caller")


# the calls whose result is one point's: each refuses an open grid, even one
# of one point, before it reads a field
POINT_ONLY = {
    "build_weff": build_weff,
    "find_exceptional_point": find_exceptional_point,
    "rephasing_response": rephasing_response,
    "response_point": lambda p: response_point(p, 0.1, 0.2),
    "build_liouvillian": lambda p: build_liouvillian(FockSystem(cutoff=2, theta=0.5), p),
}


@pytest.mark.parametrize("grid, shape", [
    (dict(theta=np.array([0.5])), (1,)),
    (dict(theta=np.array([0.5]), xi=np.array([[0.4], [0.5]])), (2, 1)),
    (dict(gamma=np.array([0.1, 0.2, 0.3])), (3,)),
], ids=["one-point-grid", "theta-by-xi", "gamma-axis"])
@pytest.mark.parametrize("name", sorted(POINT_ONLY))
def test_point_only_calls_refuse_an_open_grid(name, grid, shape):
    p = AnyonParams(theta=0.5, xi=0.4).with_(**grid)
    message = f"{name} takes one parameter point, got an open grid of shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        POINT_ONLY[name](p)
