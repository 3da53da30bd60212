"""Two-mode effective dynamics: deformed normal modes, correlated-bath channel
coefficients, the 2x2 evolution matrix W_eff with its eigen-analysis and the
exceptional-point locator.

The W_eff layer is array-valued: ``normal_mode_frequencies``,
``dissipative_rates`` and ``weff_entries`` take a ``ParamArrays`` (or one
AnyonParams point), ``weff_eigenvalues`` takes entry arrays and
``match_branches`` labels whole eigenvalue sequences. On an open grid each
result broadcasts to the points' shape and spans only the axes it depends
on: the frequencies those of theta, omega and J, the channel coefficients
those of every field but J. ``channel_coefficients`` is the one table of the
four bath channels: ``dissipative_rates`` sums it, and the Fock-space jump
operators read it.
``build_weff`` and its ``EffectiveMatrix`` are one-point calls of the same
code; the exceptional-point locator scans and refines on the array gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import AnyonParams, ParamArrays
from .rates import _complex, gamma_stat, thermal_occupation

FREQUENCY_CONVENTIONS = ("appendix", "maintext")
CONJUGATION_CONVENTIONS = ("modulus", "analytic")

# Default conventions, shared package-wide. "modulus" (full complex conjugation
# of channel coefficients) keeps the off-diagonal product B*C real, which is the
# structure that produces equal decay rates below the bifurcation and a true
# exceptional point; "analytic" leaves the complex occupation unconjugated so
# the diagonals reduce to -(gamma/2)(2 n_theta + 1) literally.
DEFAULT_FREQUENCY_CONVENTION = "appendix"
DEFAULT_CONJUGATION = "modulus"

# An exceptional point is declared when the eigenvalue gap drops below this
# multiple of gamma; sized so desk-scale float noise cannot fake a degeneracy.
EP_GAP_FACTOR = 1e-6
EP_COARSE_POINTS = 512  # angles in the locator's first scan, of the whole bracket
EP_ZOOM_POINTS = 33  # angles in each later scan, of the two cells around the last minimum
# Eigenvector-condition marker for near-defective matrices.
EP_CONDITION_MARKER = 1e8


def normal_mode_frequencies(params: AnyonParams | ParamArrays,
                            convention: str = DEFAULT_FREQUENCY_CONVENTION):
    """Normal-mode frequencies (omega_+, omega_-) of the coupled pair.

    convention "appendix" uses the half-angle splitting omega +/- J cos(theta/2)
    derived from the explicit deformed-mode transformation; "maintext" uses
    omega +/- J cos(theta).
    """
    if convention not in FREQUENCY_CONVENTIONS:
        raise ValueError(f"unknown frequency convention {convention!r}")
    c = np.cos(params.theta / 2.0) if convention == "appendix" else np.cos(params.theta)
    return params.omega + params.coupling_j * c, params.omega - params.coupling_j * c


def deformed_mode_phase(theta: float) -> complex:
    """Relative phase g = e^{-i theta/2} of the deformed normal modes
    b~+/- = (a1 +/- g a2)/sqrt2.

    The orientation of the half-angle phase is a convention the model leaves
    open; e^{-i theta/2} is the one under which the Fock-space lineshapes meet
    acceptance criterion 8 (see the README's Conventions section). The Fock
    Hamiltonian, the deformed jump operators and the bright-mode vector all
    use this one phase, so the deformed-route first moments are W_eff.
    """
    return complex(np.exp(-1j * theta / 2.0))


def _mul(x, y):
    """x*y for complex arrays with each real product rounded on its own, as
    the scalar complex product rounds them; numpy's vectorized complex
    multiply fuses them (FMA) and differs in the last bit on about 40% of
    inputs."""
    x, y = np.asarray(x), np.asarray(y)
    return _complex(x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real)


# channel_coefficients' channel order: emission +/-, absorption +/-
_CHANNEL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _channel_factors(params: AnyonParams | ParamArrays) -> tuple:
    """(pref, root, sign) of the four channels on a leading axis:
    sqrt(gamma nbar) on the principal branch, sqrt(1 +/- xi) and +/-1."""
    nth = thermal_occupation(params.theta, params.beta, params.omega)
    sign = _CHANNEL_SIGNS.reshape((4,) + (1,) * np.ndim(nth))
    nbar = np.array([nth + 1.0, nth + 1.0, nth, nth])
    pref = np.sqrt(np.asarray(params.gamma, dtype=complex) * nbar)  # principal branch
    return pref, np.sqrt(np.maximum(0.0, 1.0 + sign * params.xi)), sign


def channel_coefficients(params: AnyonParams | ParamArrays,
                         conjugation: str = DEFAULT_CONJUGATION) -> tuple:
    """The four Lindblad channels (emission +/-, absorption +/-) over the
    deformed mode basis, on a leading axis of the parameter arrays, as
    (lambda_plus, lambda_minus, adjoint_plus, adjoint_minus).

    Emission channels carry sqrt(gamma (n_theta + 1)), absorption channels
    sqrt(gamma n_theta), on the principal branch; the "+"/"-" channels weight
    the modes by sqrt(1 +/- xi)/2, and the b~- component carries the relative
    phase e^{-i theta/2} with a sign flip on the "-" channels. The adjoints
    follow the conjugation convention: "modulus" conjugates each whole
    coefficient, "analytic" only the explicit phase factor.
    """
    if conjugation not in CONJUGATION_CONVENTIONS:
        raise ValueError(f"unknown conjugation convention {conjugation!r}")
    pref, root, sign = _channel_factors(params)
    phase = np.exp(-0.5j * np.asarray(params.theta, dtype=float))
    weight = root / 2.0
    lam_plus = pref * weight
    lam_minus = _mul(sign * pref * weight, phase)
    if conjugation == "modulus":
        return lam_plus, lam_minus, np.conj(lam_plus), np.conj(lam_minus)
    return lam_plus, lam_minus, lam_plus, _mul(sign * pref * weight, np.conj(phase))


def site_coefficients(params: AnyonParams | ParamArrays) -> np.ndarray:
    """sqrt(gamma nbar (1 +/- xi)) of the four channels of
    ``channel_coefficients``, the scalars of the site-basis jumps.

    Equal to 2 lambda_plus wherever that product is normal; formed directly,
    because halving a subnormal drops its last bit.
    """
    pref, root, _ = _channel_factors(params)
    return pref * root


def _channel_sum(x, y):
    """sum_k x[k] y[k] over the leading channel axis, on the real and imaginary
    parts: each product rounded as ``_mul`` rounds it, the channels added in
    order starting from 0.0."""
    re = x.real * y.real - x.imag * y.imag
    im = x.real * y.imag + x.imag * y.real
    total_re = total_im = 0.0
    for k in range(len(re)):
        total_re, total_im = total_re + re[k], total_im + im[k]
    return _complex(total_re, total_im)


def dissipative_rates(params: AnyonParams | ParamArrays,
                      conjugation: str = DEFAULT_CONJUGATION) -> tuple:
    """(Gamma_++, Gamma_--, Gamma_+-, Gamma_-+) over the parameter arrays.

    Gamma_ij = sum_k lambda_k^(i) (lambda_k^(j))° over the four channels of
    ``channel_coefficients``, each product rounded as the scalar complex
    product rounds it and the channels summed in order.
    """
    lam_plus, lam_minus, adj_plus, adj_minus = channel_coefficients(params, conjugation)
    return (_channel_sum(lam_plus, adj_plus), _channel_sum(lam_minus, adj_minus),
            _channel_sum(lam_plus, adj_minus), _channel_sum(lam_minus, adj_plus))


def weff_entries(params: AnyonParams | ParamArrays,
                 frequency_convention: str = DEFAULT_FREQUENCY_CONVENTION,
                 conjugation: str = DEFAULT_CONJUGATION,
                 stat_dephasing: bool = False) -> tuple:
    """The entries (A, B, C, D) of W_eff over the parameter arrays.

    A = -i omega_+ - Gamma_++, D = -i omega_- - Gamma_--, B = -Gamma_+-,
    C = -Gamma_-+ with Gamma_ij the channel sums under the configured
    conjugation. stat_dephasing optionally adds the single-oscillator
    statistical rate to both diagonal decay parts (default off).
    """
    wp, wm = normal_mode_frequencies(params, frequency_convention)
    gpp, gmm, gpm, gmp = dissipative_rates(params, conjugation)
    a = -1j * wp - gpp
    d = -1j * wm - gmm
    if stat_dephasing:
        extra = gamma_stat(params.theta, params.z, params.gamma)
        a = a - extra
        d = d - extra
    return a, -gpm, -gmp, d


def _modulus(z):
    """|z| as the C library's hypot gives it, as Python's abs(complex) does;
    numpy's vectorized complex absolute differs from it in the last bit on
    about a third of inputs, enough to flip the comparisons below."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def weff_eigenvalues(a, b, c, d) -> tuple:
    """Closed-form eigenvalues (lambda_+, lambda_-) of the 2x2 matrices
    ((A, B), (C, D)) over entry arrays that broadcast together.

    lambda_+/- = (A + D +/- sqrt((A-D)^2 + 4BC))/2 with the principal branch.
    A discriminant imaginary part within round-off (1e-12 of |A-D|^2 + 4|BC|)
    is set to +0.0, so the sign of a rounding error cannot pick the branch of
    the root. A matrix with an entry above 2^500 in modulus is scaled by an exact
    power of two to below 2^500, its eigenvalues back: the squares stay finite.
    """
    shift = _shift(a, b, c, d)
    if shift is not None:
        a, b, c, d = (_ldexp(z, shift) for z in (a, b, c, d))
    disc = _mul(a - d, a - d) + _mul(4.0 * b, c)
    real = np.abs(disc.imag) <= 1e-12 * (_modulus(a - d) ** 2 + 4.0 * _modulus(_mul(b, c)))
    root = np.sqrt(np.where(real, disc.real, disc))
    lam = 0.5 * (a + d + root), 0.5 * (a + d - root)
    return lam if shift is None else tuple(_ldexp(x, -shift) for x in lam)


def _shift(a, b, c, d):
    """Per matrix ((A, B), (C, D)), the power of two taking an entry above 2^500 in modulus
    to below 2^500 (0 for a matrix without one); None when no matrix has one."""
    largest = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    if np.max(largest) > 2.0 ** 500:
        return np.where(largest > 2.0 ** 500, 500 - np.frexp(largest)[1], 0)
    return None


def _ldexp(z, exponent):
    """z * 2**exponent, exact unless a part leaves the normal range."""
    return _complex(np.ldexp(np.real(z), exponent), np.ldexp(np.imag(z), exponent))


def _coupled(b, c):
    """B or C nonzero: only then can a degeneracy of ((A, B), (C, D)) be exceptional."""
    return (b != 0) | (c != 0)


def ep_flag(gap, b, c, gamma):
    """The exceptional-point rule: a gap below EP_GAP_FACTOR * gamma in a
    coupled W_eff. At xi = 0, B = C = 0 exactly, and where the diagonal
    frequencies cross W_eff is a multiple of the identity: no EP."""
    return (gap < EP_GAP_FACTOR * gamma) & _coupled(b, c)


def _eigenvector(a, b, c, d, lam) -> np.ndarray:
    """Unit right eigenvectors of ((A, B), (C, D)) for ``lam``, the two
    components stacked on a new leading axis.

    (W - lam I) v = 0; both candidate rows solve exactly for a 2x2, pick the
    better-conditioned one (eliminate the larger-residual row). A candidate
    whose squared norm underflows gets the canonical basis vector.
    """
    top = _modulus(b) + _modulus(a - lam) >= _modulus(c) + _modulus(d - lam)
    v = np.array([np.where(top, b, lam - d), np.where(top, lam - a, c)])
    norm = np.sqrt((v[0].real ** 2 + v[1].real ** 2) + (v[0].imag ** 2 + v[1].imag ** 2))
    first = _modulus(a - lam) <= _modulus(d - lam)
    canonical = np.array([first, ~first], dtype=complex)
    return np.where(norm == 0.0, canonical, v / np.where(norm == 0.0, 1.0, norm))


def _condition(vp, vm) -> np.ndarray:
    """sigma_max/sigma_min of the 2x2 matrices with columns vp, vm.

    In closed form from the Gram matrix: sigma_max^2 is its larger eigenvalue
    (F + sqrt((|vp|^2 - |vm|^2)^2 + 4|vp^H vm|^2))/2, F the squared Frobenius
    norm, and sigma_max sigma_min = |det|. inf for a singular matrix.
    """
    pp = (vp[0].real ** 2 + vp[1].real ** 2) + (vp[0].imag ** 2 + vp[1].imag ** 2)
    mm = (vm[0].real ** 2 + vm[1].real ** 2) + (vm[0].imag ** 2 + vm[1].imag ** 2)
    cross = _modulus(np.conj(vp[0]) * vm[0] + np.conj(vp[1]) * vm[1])
    smax2 = 0.5 * (pp + mm + np.hypot(pp - mm, 2.0 * cross))
    det = _modulus(vp[0] * vm[1] - vm[0] * vp[1])
    return np.divide(smax2, det, out=np.full(det.shape, np.inf), where=det > 0.0)


@dataclass(frozen=True)
class EffectiveMatrix:
    """W_eff with its closed-form eigen-analysis, made with the record (so
    ``dataclasses.replace(w, entries=...)`` analyses the new matrix): right
    eigenvectors as columns (a diagonal matrix's are the basis vectors,
    condition 1), lifetimes tau = 1/(-Re lambda), near_defective when the
    eigenvector condition number exceeds EP_CONDITION_MARKER."""

    entries: np.ndarray                 # 2x2 complex (A, B; C, D)
    eigenvalues: tuple = field(init=False)             # (lambda_plus, lambda_minus)
    right_eigenvectors: np.ndarray = field(init=False)
    lifetimes: tuple = field(init=False)
    eigenvector_condition: float = field(init=False)
    near_defective: bool = field(init=False)

    def __post_init__(self):
        (a, b), (c, d) = self.entries
        lam = weff_eigenvalues(a, b, c, d)
        if _coupled(b, c):  # 2^k W has W's eigenvectors: scaled as weff_eigenvalues scales
            shift = _shift(a, b, c, d)
            vectors = _eigenvector(*(z if shift is None else _ldexp(z, shift)
                                     for z in (a, b, c, d, np.array(lam))))
        else:  # diagonal: lambda_+ takes the basis vector of its nearer entry
            vectors = np.eye(2, dtype=complex)[:, ::1 if abs(a - lam[0]) <= abs(d - lam[0]) else -1]
        cond = float(_condition(vectors[:, 0], vectors[:, 1]))
        with np.errstate(over="ignore"):  # a subnormal decay rate: lifetime inf
            lifetimes = tuple((1.0 / -l.real) if l.real < 0.0 else float("inf") for l in lam)
        for name, value in (("eigenvalues", lam), ("right_eigenvectors", vectors),
                            ("lifetimes", lifetimes), ("eigenvector_condition", cond),
                            ("near_defective", cond > EP_CONDITION_MARKER)):
            object.__setattr__(self, name, value)

    @property
    def gap(self) -> float:
        lp, lm = self.eigenvalues
        return abs(lp - lm)


def build_weff(params: AnyonParams,
               frequency_convention: str = DEFAULT_FREQUENCY_CONVENTION,
               conjugation: str = DEFAULT_CONJUGATION,
               stat_dephasing: bool = False) -> EffectiveMatrix:
    """The effective evolution matrix at one parameter point
    (``weff_entries``), with its eigen-analysis."""
    a, b, c, d = weff_entries(params, frequency_convention, conjugation, stat_dephasing)
    return EffectiveMatrix(np.array([[a, b], [c, d]], dtype=complex))


def match_branches(first, second) -> tuple:
    """Label eigenvalue pairs along the last axis by branch continuity.

    ``first[..., k]`` and ``second[..., k]`` are the two eigenvalues of sweep
    point k in any order. Each pair after the first keeps the order of its
    labelled predecessor unless swapping gives a smaller total move in the
    complex plane; an exact tie keeps the raw order. Returns the relabelled
    (first, second).

    One pass: the raw keep/swap costs between consecutive raw pairs give the
    label each point takes after a kept and after a swapped predecessor.
    Where the two agree (a tie) the label restarts; elsewhere it flips with
    the running XOR of the swap decisions since the last restart.
    """
    first, second = np.asarray(first), np.asarray(second)
    if first.shape[-1] < 2:
        return first, second
    prev0, prev1 = first[..., :-1], second[..., :-1]
    cur0, cur1 = first[..., 1:], second[..., 1:]
    keep = _modulus(cur0 - prev0) + _modulus(cur1 - prev1)
    swap = _modulus(cur1 - prev0) + _modulus(cur0 - prev1)
    after_kept = ~(keep <= swap)
    after_swapped = ~(swap <= keep)
    restart = after_kept == after_swapped
    flips = np.cumsum(after_kept & ~restart, axis=-1) % 2 == 1
    steps = np.arange(keep.shape[-1])
    last = np.maximum.accumulate(np.where(restart, steps, -1), axis=-1)
    at = np.maximum(last, 0)
    start = np.where(last >= 0, np.take_along_axis(after_kept, at, axis=-1), False)
    since = np.where(last >= 0, np.take_along_axis(flips, at, axis=-1), False)
    swapped = np.concatenate([np.zeros(first.shape[:-1] + (1,), bool),
                              start ^ flips ^ since], axis=-1)
    return np.where(swapped, second, first), np.where(swapped, first, second)


@dataclass(frozen=True)
class EPResult:
    found: bool
    theta: float
    gap: float
    threshold: float


def find_exceptional_point(params: AnyonParams,
                           theta_bracket: tuple | None = None,
                           frequency_convention: str = DEFAULT_FREQUENCY_CONVENTION,
                           conjugation: str = DEFAULT_CONJUGATION,
                           stat_dephasing: bool = False) -> EPResult:
    """Locate the statistical angle minimizing the eigenvalue gap of W_eff.

    One scan, repeated: the array gap (``weff_eigenvalues`` of
    ``weff_entries``) on EP_COARSE_POINTS angles spanning the bracket, then on
    EP_ZOOM_POINTS angles spanning the two grid cells around the smallest
    gap, until they span at most 1e-14. The gap behaves like
    sqrt|theta - theta*| at an EP, so each scan keeps the crossing and
    shrinks the cells 16x: 13 array calls for the default bracket (the scan,
    11 zooms and the refined angle). Where two minima share the zoomed
    cells, the next scan keeps the one its samples read smaller, which is
    not always the deeper.
    An EP is declared by ``ep_flag`` at the refined angle; the minimal gap is
    reported either way. params.theta is ignored. The default bracket is
    (0, pi - 0.01).
    """
    if theta_bracket is None:
        theta_bracket = (0.0, math.pi - 0.01)
    lo, hi = theta_bracket
    if not (0.0 <= lo < hi <= math.pi):
        raise ValueError(f"theta bracket must satisfy 0 <= lo < hi <= pi, got {theta_bracket}")

    def gap_at(theta):
        lp, lm = weff_eigenvalues(*weff_entries(ParamArrays.over(params, theta=theta),
                                                frequency_convention, conjugation, stat_dephasing))
        return _modulus(lp - lm)

    grid = np.linspace(lo, hi, EP_COARSE_POINTS)
    while True:
        k = int(np.argmin(gap_at(grid)))
        a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
        if b - a <= 1e-14:
            break
        grid = np.linspace(a, b, EP_ZOOM_POINTS)
    theta_star = 0.5 * (a + b)
    a, b, c, d = weff_entries(ParamArrays.over(params, theta=theta_star), frequency_convention,
                              conjugation, stat_dephasing)
    lp, lm = weff_eigenvalues(a, b, c, d)
    gap = float(_modulus(lp - lm))
    return EPResult(found=bool(ep_flag(gap, b, c, params.gamma)), theta=theta_star, gap=gap,
                    threshold=EP_GAP_FACTOR * params.gamma)
