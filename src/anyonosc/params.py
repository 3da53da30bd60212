"""Shared parameter set for the anyonic oscillator model.

``AnyonParams`` is the one parameter record: a point when every field is a
scalar, the float64 arrays of an open grid when any field is an array, for
the array-valued closed-form layer. Either is checked by ``check_points``,
one rule with one message per parameter; ``require_point`` refuses a grid
where only a point is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np


class ParameterError(ValueError):
    """Raised when a physical parameter is outside its admissible range."""


# Reject beta*omega below this floor: the generalized occupation 1/(e^{bw} - e^{i theta})
# has a pole as bw -> 0, theta -> 0, and we fail loudly instead of returning infinities.
BETA_OMEGA_FLOOR = 1e-9


def _math_exp(x: float) -> float:
    """math.exp(x), inf where it overflows, as at x = inf: the occupation
    1/(e^{beta omega} - e^{i theta}) of a cold bath is then 0."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _beta_omega(beta, omega):
    """beta * omega, inf where the product overflows, as at beta = inf: a bath
    too cold for a double is the zero-temperature one."""
    with np.errstate(over="ignore"):
        return np.multiply(beta, omega)[()]


def _exp(x):
    """e**x elementwise by the C library's exp (the one ``math.exp`` calls,
    inf above its range), evaluated once per distinct value; a one-element
    array (beta omega where neither is an axis of an open grid) takes no sort.

    numpy's own exp differs from it by one ulp on a few percent of inputs,
    and e^{beta omega} - e^{i theta} in the occupation (and 1 - z in the
    rates) amplifies that by up to 1/(beta omega). With this one exp an array
    point and a one-point call agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 1:
        return np.full(x.shape, _math_exp(x.flat[0]))[()]
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([_math_exp(v) for v in values.tolist()])[inverse].reshape(x.shape)


def first_violation(bad, *values):
    """The values at the first point (C order over the broadcast shape) where
    ``bad`` holds, as Python scalars; None when it holds nowhere."""
    bad = np.asarray(bad)
    if not bad.any():
        return None
    i = int(np.argmax(bad.ravel()))
    return tuple(np.broadcast_to(v, bad.shape).ravel()[i].item() for v in values)


def check_points(theta, omega, coupling_j, gamma, beta, xi):
    """Check every parameter point of arrays that broadcast together.

    Raises ParameterError for the first offending point in C order, with the
    message of the first rule it breaks, in the order theta, xi, omega,
    coupling_j, gamma, beta, beta*omega floor: the error a loop constructing
    one AnyonParams per point would raise. NaN breaks every rule, +/-inf those
    of omega, coupling_j and gamma; beta = inf (zero temperature) is allowed.
    """
    bw = _beta_omega(beta, omega)
    # written to hold for Python floats and arrays alike; NaN fails the ranges
    rules = ((theta < 0.0) | (theta > math.pi) | (theta != theta),
             (xi < -1.0) | (xi > 1.0) | (xi != xi),
             ~np.isfinite(omega) | (omega <= 0.0), ~np.isfinite(coupling_j),
             ~np.isfinite(gamma) | (gamma < 0.0), (beta <= 0.0) | (beta != beta),
             bw < BETA_OMEGA_FLOOR)
    if not any(r.any() if isinstance(r, np.ndarray) else r for r in rules):
        return
    bad = np.broadcast_arrays(*rules)
    point = first_violation(np.any(bad, axis=0), theta, xi, omega, coupling_j, gamma, beta,
                            bw, np.argmax(bad, axis=0))
    theta, xi, omega, coupling_j, gamma, beta, bw, rule = point
    raise ParameterError((
        f"theta must lie in [0, pi], got {theta}",
        f"xi must lie in [-1, 1], got {xi}",
        f"omega must be positive and finite, got {omega}",
        f"coupling_j must be finite, got {coupling_j}",
        f"gamma must be non-negative and finite, got {gamma}",
        f"beta must be positive, got {beta}",
        f"beta*omega = {bw:g} below floor {BETA_OMEGA_FLOOR:g}",
    )[rule])


@dataclass(frozen=True)
class AnyonParams:
    """Physical parameters of the anyonic oscillator pair.

    theta      statistical exchange angle, radians in [0, pi]
    omega      mode frequency; sets the unit of every other rate
    coupling_j hopping between the two modes, in units of omega
    gamma      bath coupling rate, in units of omega
    beta       inverse temperature, so beta*omega is dimensionless
    xi         bath correlation in [-1, 1]

    A record of scalars is one point. When any field is an array, every
    field becomes a float64 array of an open grid: each keeps its own extent
    on one shared number of dimensions (size 1 where it is constant, as
    ``np.ix_`` gives), and fields that do not broadcast together are refused
    as ``np.broadcast_arrays`` refuses them. Every closed-form function of
    ``rates`` and ``dimer`` that reads a parameter set then returns arrays
    that broadcast to the points' shape, each over the axes it depends on.
    Construction checks every point.
    """

    theta: float
    omega: float = 1.0
    coupling_j: float = 0.2
    gamma: float = 0.1
    beta: float = 1.0
    xi: float = 0.0

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        values = [getattr(self, n) for n in names]
        if not all(np.isscalar(v) for v in values):
            values = [np.asarray(v, dtype=float) for v in values]
            ndim = len(np.broadcast_shapes(*(v.shape for v in values)))
            for name, value in zip(names, values):
                object.__setattr__(self, name,
                                   value.reshape((1,) * (ndim - value.ndim) + value.shape))
        check_points(self.theta, self.omega, self.coupling_j, self.gamma, self.beta, self.xi)

    @property
    def z(self):
        """Boltzmann weight z = exp(-beta*omega), always in (0, 1)."""
        return _exp(-_beta_omega(self.beta, self.omega))

    def with_(self, **kw) -> "AnyonParams":
        """Copy with selected fields replaced (validation re-runs); an array
        field makes the copy an open grid."""
        return replace(self, **kw)

    def require_point(self, caller: str) -> None:
        """Raise ValueError unless this record is one point (a grid of shape ()),
        naming ``caller``, which takes nothing else."""
        shape = np.broadcast_shapes(*(np.shape(getattr(self, f.name)) for f in fields(self)))
        if shape:
            raise ValueError(f"{caller} takes one parameter point, "
                             f"got an open grid of shape {shape}")
