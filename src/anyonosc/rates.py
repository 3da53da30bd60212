"""Closed-form single-oscillator quantities of the deformed algebra.

Everything here is a pure function of its arguments: the deformed-commutator
spectrum, the generalized (complex) thermal occupation, the statistical phase
average and the relaxation rates, with their boson (theta = 0) and fermion
(theta = pi) limits.

``thermal_occupation``, ``phase_average`` and ``gamma_stat`` take arrays
that broadcast together, and ``gamma_full_single`` an AnyonParams point or
open grid; each returns arrays that broadcast to the points' shape, over the
axes of its inputs, and a scalar call is the same code on 0-d values. A
range check raises for the first offending point in C order.
``deformed_commutator_eigenvalue``, ``q_bracket`` and
``phase_average_series`` take scalars.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .params import (AnyonParams, ParameterError, BETA_OMEGA_FLOOR, _beta_omega, _exp,
                     first_violation)

SERIES_TAIL = 1e-14  # phase_average_series stops at the first z^N below this


def deformed_commutator_eigenvalue(n: int, theta: float) -> complex:
    """Eigenvalue of the deformed commutator [a, a+] on the n-quantum state.

    In the Fock representation used throughout (a|n> = sqrt([n]_q)|n-1> with
    [n]_q = (1 - e^{i theta n})/(1 - e^{i theta})), the operator
    1 + (e^{i theta} - 1) N has eigenvalue e^{i theta n}.
    """
    if n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n}")
    return cmath.exp(1j * theta * n)


def q_bracket(n: int, theta: float) -> complex:
    """Deformed integer [n]_q = (1 - e^{i theta n})/(1 - e^{i theta}); n at theta=0.

    The boson and fermion endpoints are special-cased so that the limits are
    exact: [n] = n at theta = 0, and 1/0 for odd/even n at theta = pi (the
    exclusion zero must not pick up rounding noise, which the square roots of
    the ladder entries would amplify).
    """
    if theta == 0.0:
        return complex(n)
    if theta == math.pi:
        return complex(n % 2)
    q = cmath.exp(1j * theta)
    if abs(1.0 - q) < 1e-12:
        return complex(n)
    return (1.0 - q**n) / (1.0 - q)


def _complex(real, imag):
    """The complex array of two parts of one shape, a scalar when 0-d."""
    out = np.empty(np.shape(real), dtype=complex)
    out.real, out.imag = real, imag
    return out[()]


def _divide(a, b):
    """a/b for real a and complex b, divided as CPython divides complex
    numbers (Smith's method, dividing by the scaled denominator where numpy
    multiplies by its reciprocal), so array points keep the bits of the
    scalar formulas and Fock-route spectra keep their bytes."""
    a, br, bi = np.asarray(a, dtype=float), np.real(b), np.imag(b)
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # np.where drops it
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        return _complex(np.where(wide, a + 0.0 * ratio, a * ratio + 0.0) / denom,
                        np.where(wide, 0.0 - a * ratio, 0.0 * ratio - a) / denom)


def thermal_occupation(theta: float, beta: float, omega: float) -> complex:
    """Generalized thermal occupation 1/(e^{beta omega} - e^{i theta}).

    Complex for intermediate theta; real at the boson and fermion points.
    Raises ParameterError when beta*omega is below the configured floor,
    where the expression approaches its theta -> 0 pole.
    """
    bw = _beta_omega(beta, omega)
    low = first_violation(bw < BETA_OMEGA_FLOOR, bw)
    if low is not None:
        raise ParameterError(f"beta*omega = {low[0]:g} below floor {BETA_OMEGA_FLOOR:g}")
    return _divide(1.0, _exp(bw) - np.exp(1j * np.asarray(theta, dtype=float)))


def _check_z(z):
    bad = first_violation(~((0.0 <= z) & (z < 1.0)), z)
    if bad is not None:
        raise ValueError(f"z must lie in [0, 1), got {bad[0]}")


def phase_average(theta: float, z: float) -> complex:
    """Thermal average of the exchange phase, (1 - z)/(1 - z e^{i theta}).

    Equals sum_n e^{i theta n} (1 - z) z^n for the Boltzmann weights z^n.
    """
    z = np.asarray(z)
    _check_z(z)
    return _divide(1.0 - z, 1.0 - z * np.exp(1j * np.asarray(theta, dtype=float)))


def phase_average_series(theta: float, z: float) -> complex:
    """Truncated-series oracle for phase_average: sum e^{i theta n}(1-z)z^n, z^N < SERIES_TAIL."""
    if z == 0.0:
        return 1.0 + 0.0j
    nmax = max(1, int(math.ceil(math.log(SERIES_TAIL) / math.log(z))))
    total = 0.0 + 0.0j
    for n in range(nmax + 1):
        total += cmath.exp(1j * theta * n) * (1.0 - z) * z**n
    return total


def gamma_stat(theta: float, z: float, gamma: float) -> float:
    """Statistical contribution to the coherence relaxation rate.

    (gamma/2)(1 - Re<e^{i theta N}>) = (gamma/2) z (1 - cos theta)(1 + z)/D,
    D = 1 - 2 z cos theta + z^2 summed as (1 - z)^2 + 2 z (1 - cos theta): no
    term cancels, so the rate keeps its relative accuracy at every z and
    theta. Exactly zero when cos theta == 1 (the boson limit); gamma z/(1+z)
    at the fermion point.
    """
    gamma, z = np.asarray(gamma), np.asarray(z)
    bad = first_violation(gamma < 0.0, gamma)
    if bad is not None:
        raise ValueError(f"gamma must be non-negative, got {bad[0]}")
    _check_z(z)
    one_minus_c = 1.0 - np.cos(theta)
    denom = (1.0 - z) ** 2 + 2.0 * z * one_minus_c
    return (0.5 * gamma * z * one_minus_c * (1.0 + z) / denom)[()]


def gamma_full_single(params: AnyonParams) -> complex:
    """Total phase relaxation rate of a single oscillator.

    (gamma/2) * [2 n_theta + 1 + (1 - Re<e^{i theta N}>)], complex in general
    because n_theta is: the real part is the decay rate reported to users, the
    imaginary part a frequency shift. Boson limit: (gamma/2)(2n + 1). An
    open grid gives an array over the axes it reads, one point a scalar.
    """
    nth = thermal_occupation(params.theta, params.beta, params.omega)
    re_avg = phase_average(params.theta, params.z).real
    return 0.5 * params.gamma * (2.0 * nth + 1.0 + (1.0 - re_avg))
