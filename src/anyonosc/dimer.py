"""Two-mode effective dynamics: deformed normal modes, correlated-bath channel
coefficients, the 2x2 evolution matrix W_eff, its eigen-analysis and the
exceptional-point locator."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .params import AnyonParams
from .rates import gamma_stat, thermal_occupation

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
# Eigenvector-condition marker for near-defective matrices.
EP_CONDITION_MARKER = 1e8


def normal_mode_frequencies(params: AnyonParams, convention: str = DEFAULT_FREQUENCY_CONVENTION):
    """Normal-mode frequencies (omega_plus, omega_minus) of the coupled pair.

    convention "appendix" uses the half-angle splitting omega +/- J cos(theta/2)
    derived from the explicit deformed-mode transformation; "maintext" uses
    omega +/- J cos(theta).
    """
    if convention not in FREQUENCY_CONVENTIONS:
        raise ValueError(f"unknown frequency convention {convention!r}")
    c = math.cos(params.theta / 2.0) if convention == "appendix" else math.cos(params.theta)
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


@dataclass(frozen=True)
class LindbladChannel:
    """One dissipation channel, as coefficients over the deformed mode basis.

    The coefficient structure is prefactor * weight for the b~+ component and
    sign * prefactor * weight * e^{-i theta/2} for the b~- component, with the
    prefactor sqrt(gamma*nbar) on the principal branch.
    """

    label: str
    prefactor: complex      # sqrt(gamma * nbar), complex for intermediate theta
    weight: float           # sqrt(1 +/- xi)/2, real structural factor
    sign: int               # +1 for "+" channels, -1 for "-" channels
    phase: complex          # e^{-i theta/2}

    @property
    def lambda_plus(self) -> complex:
        return self.prefactor * self.weight

    @property
    def lambda_minus(self) -> complex:
        return self.sign * self.prefactor * self.weight * self.phase

    def conjugated(self, which: str, conjugation: str) -> complex:
        """The configured conjugation of lambda_plus / lambda_minus.

        "modulus" conjugates the whole coefficient; "analytic" conjugates only
        the explicit phase factor (real structural factors are unchanged and
        the complex prefactor is left as is).
        """
        if conjugation == "modulus":
            lam = self.lambda_plus if which == "plus" else self.lambda_minus
            return np.conj(lam)
        if conjugation == "analytic":
            if which == "plus":
                return self.prefactor * self.weight
            return self.sign * self.prefactor * self.weight * np.conj(self.phase)
        raise ValueError(f"unknown conjugation convention {conjugation!r}")


@dataclass(frozen=True)
class ChannelSet:
    """The four Lindblad channels (emission +/-, absorption +/-)."""

    channels: tuple
    params: AnyonParams

    def __iter__(self):
        return iter(self.channels)

    def dissipative_sum(self, i: str, j: str, conjugation: str = DEFAULT_CONJUGATION) -> complex:
        """Gamma_ij = sum_k lambda_k^(i) (lambda_k^(j))° under the chosen conjugation."""
        total = 0.0 + 0.0j
        for ch in self.channels:
            lam_i = ch.lambda_plus if i == "plus" else ch.lambda_minus
            total += lam_i * ch.conjugated(j, conjugation)
        return total


def lindblad_coefficients(params: AnyonParams) -> ChannelSet:
    """Channel coefficients over the deformed mode basis.

    Emission channels carry sqrt(gamma (n_theta + 1)), absorption channels
    sqrt(gamma n_theta); the "+"/"-" channels weight the modes by
    sqrt(1 +/- xi)/2, and the b~- component carries the relative phase
    e^{-i theta/2} with a sign flip on the "-" channels.
    """
    nth = thermal_occupation(params.theta, params.beta, params.omega)
    phase = cmath.exp(-1j * params.theta / 2.0)
    chans = []
    for kind, nbar in (("emission", nth + 1.0), ("absorption", nth)):
        pref = np.sqrt(complex(params.gamma) * nbar)  # principal branch
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            weight = math.sqrt(max(0.0, 1.0 + sign * params.xi)) / 2.0
            chans.append(LindbladChannel(f"{kind}_{tag}", pref, weight, sign, phase))
    return ChannelSet(tuple(chans), params)


@dataclass
class EffectiveMatrix:
    """W_eff with its eigen-decomposition and mode lifetimes."""

    entries: np.ndarray                 # 2x2 complex (A, B; C, D)
    omega_plus: float
    omega_minus: float
    params: AnyonParams
    frequency_convention: str
    conjugation: str
    stat_dephasing: bool
    eigenvalues: tuple | None = None            # (lambda_plus, lambda_minus)
    right_eigenvectors: np.ndarray | None = None  # columns
    lifetimes: tuple | None = None
    eigenvector_condition: float | None = None
    near_defective: bool = False

    @property
    def gap(self) -> float:
        lp, lm = self.eigenvalues
        return abs(lp - lm)


def build_weff(params: AnyonParams,
               frequency_convention: str = DEFAULT_FREQUENCY_CONVENTION,
               conjugation: str = DEFAULT_CONJUGATION,
               stat_dephasing: bool = False) -> EffectiveMatrix:
    """Assemble the effective evolution matrix and populate its eigen-analysis.

    A = -i omega_+ - Gamma_++, D = -i omega_- - Gamma_--, B = -Gamma_+-,
    C = -Gamma_-+ with Gamma_ij the channel sums under the configured
    conjugation. stat_dephasing optionally adds the single-oscillator
    statistical rate to both diagonal decay parts (default off).
    """
    wp, wm = normal_mode_frequencies(params, frequency_convention)
    chans = lindblad_coefficients(params)
    gpp = chans.dissipative_sum("plus", "plus", conjugation)
    gmm = chans.dissipative_sum("minus", "minus", conjugation)
    gpm = chans.dissipative_sum("plus", "minus", conjugation)
    gmp = chans.dissipative_sum("minus", "plus", conjugation)
    a = -1j * wp - gpp
    d = -1j * wm - gmm
    if stat_dephasing:
        extra = gamma_stat(params.theta, params.z, params.gamma)
        a -= extra
        d -= extra
    w = EffectiveMatrix(
        entries=np.array([[a, -gpm], [-gmp, d]], dtype=complex),
        omega_plus=wp, omega_minus=wm, params=params,
        frequency_convention=frequency_convention, conjugation=conjugation,
        stat_dephasing=stat_dephasing,
    )
    return eigen_analysis(w)


def _eigvec(a, b, c, d, lam):
    # (W - lam I) v = 0; both candidate rows solve exactly for a 2x2,
    # pick the better-conditioned one (eliminate the larger-residual row).
    if abs(b) + abs(a - lam) >= abs(c) + abs(d - lam):
        v = np.array([b, lam - a], dtype=complex)
    else:
        v = np.array([lam - d, c], dtype=complex)
    n = np.linalg.norm(v)
    if n == 0.0:  # diagonal matrix: canonical basis vector
        v = np.array([1.0, 0.0], complex) if abs(a - lam) <= abs(d - lam) else np.array([0.0, 1.0], complex)
        n = 1.0
    return v / n


def eigen_analysis(matrix: EffectiveMatrix) -> EffectiveMatrix:
    """Closed-form eigenvalues/eigenvectors and lifetimes of a 2x2 W_eff.

    lambda_+/- = (A + D +/- sqrt((A-D)^2 + 4BC))/2 with the principal branch;
    lifetimes tau = 1/(-Re lambda). Flags near-defective matrices when the
    eigenvector condition number exceeds EP_CONDITION_MARKER. A discriminant
    imaginary part within round-off (1e-12 of |A-D|^2 + 4|BC|) is set to +0.0,
    so the sign of a rounding error cannot pick the branch of the root.
    """
    (a, b), (c, d) = matrix.entries
    disc = (a - d) ** 2 + 4.0 * b * c
    if abs(disc.imag) <= 1e-12 * (abs(a - d) ** 2 + 4.0 * abs(b * c)):
        disc = complex(disc.real, 0.0)
    root = np.sqrt(disc)
    lp = 0.5 * (a + d + root)
    lm = 0.5 * (a + d - root)
    vp = _eigvec(a, b, c, d, lp)
    vm = _eigvec(a, b, c, d, lm)
    vmat = np.column_stack([vp, vm])
    sv = np.linalg.svd(vmat, compute_uv=False)
    cond = float(sv[0] / sv[1]) if sv[1] > 0.0 else float("inf")
    matrix.eigenvalues = (lp, lm)
    matrix.right_eigenvectors = vmat
    matrix.lifetimes = tuple(
        (1.0 / -l.real) if l.real < 0.0 else float("inf") for l in (lp, lm)
    )
    matrix.eigenvector_condition = cond
    matrix.near_defective = cond > EP_CONDITION_MARKER
    return matrix


def match_branches(previous: tuple, current: tuple) -> tuple:
    """Order `current` eigenvalues to continue the branches of `previous`.

    Nearest-neighbor matching in the complex plane between consecutive sweep
    points: keeps the identity order unless swapping gives a smaller total move.
    """
    keep = abs(current[0] - previous[0]) + abs(current[1] - previous[1])
    swap = abs(current[1] - previous[0]) + abs(current[0] - previous[1])
    return current if keep <= swap else (current[1], current[0])


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
                           stat_dephasing: bool = False,
                           coarse_points: int = 512) -> EPResult:
    """Locate the statistical angle minimizing the eigenvalue gap of W_eff.

    Coarse scan over the bracket followed by golden-section refinement. An EP
    is declared when the refined gap falls below EP_GAP_FACTOR * gamma; the
    minimal gap is reported either way. params.theta is ignored. The default
    bracket stops short of pi, where the xi = 0 matrix becomes a scalar (a
    normal degeneracy, not an exceptional point).
    """
    if theta_bracket is None:
        theta_bracket = (0.0, math.pi - 0.01)
    lo, hi = theta_bracket
    if not (0.0 <= lo < hi <= math.pi):
        raise ValueError(f"theta bracket must satisfy 0 <= lo < hi <= pi, got {theta_bracket}")

    def gap_at(theta):
        p = params.with_(theta=theta)
        return build_weff(p, frequency_convention, conjugation, stat_dephasing).gap

    grid = np.linspace(lo, hi, coarse_points)
    gaps = np.array([gap_at(t) for t in grid])
    k = int(np.argmin(gaps))
    a = grid[max(0, k - 1)]
    b = grid[min(coarse_points - 1, k + 1)]

    # golden-section refinement; the gap behaves like sqrt|theta - theta*| at a
    # true crossing, still unimodal within one coarse cell
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = gap_at(c), gap_at(d)
    while b - a > 1e-14:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = gap_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = gap_at(d)
    theta_star = 0.5 * (a + b)
    gap = gap_at(theta_star)
    threshold = EP_GAP_FACTOR * params.gamma
    return EPResult(found=gap < threshold, theta=theta_star, gap=gap, threshold=threshold)
