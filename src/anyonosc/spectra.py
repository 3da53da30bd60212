"""Third-order rephasing 2D spectra: braided dipole superoperators, frequency
grids via resolvent solves, diagonal-slice lineshapes and the bright-mode
overlay curves."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .dimer import (DEFAULT_CONJUGATION, DEFAULT_FREQUENCY_CONVENTION, build_weff,
                    deformed_mode_phase, match_branches, weff_eigenvalues, weff_entries)
from .fock import (FockSystem, build_liouvillian, left_mult, right_mult,
                   trace_vector)
from .params import AnyonParams, ParamArrays

DEFAULT_JUMP_BASIS = "site"  # fig-3 style spectra; logged in grid metadata
RHO_EQ = ("vacuum", "thermal")  # equilibrium states the pathway can start from


@dataclass
class DipoleSet:
    """Dipole matrix and its ket/bra superoperator forms."""

    mu_matrix: np.ndarray
    mu_left: np.ndarray    # ket-side action rho -> mu rho   (mu^{(+)})
    mu_right: np.ndarray   # bra-side action rho -> rho mu   (mu^{(-)})
    theta: float


def build_dipole(system: FockSystem, conjugation: str = DEFAULT_CONJUGATION) -> DipoleSet:
    """Braided dipole: the mode-1 phase string dresses the local mode-2 terms.

    Built as the sum of the braided pair operators, mu = a1 + a1° + a2 + a2°,
    which equals the string-dressed form
    mu = a1° + a1 + e^{-i theta N1} (1 (x) a°) + e^{+i theta N1} (1 (x) a);
    the string sign follows the braided cross relation a1 a2° = e^{-i theta}
    a2° a1 of the worked two-mode algebra. Every pathway that raises mode 2
    past an occupied mode 1 picks up the exchange phase; at theta = 0 the
    strings are trivial and mu reduces to the plain sum of site dipoles.
    """
    if system.modes != 2:
        raise ValueError("dipole requires a two-mode system")
    a1, a2 = system.lowering
    mu = a1 + system.dagger(0, conjugation) + a2 + system.dagger(1, conjugation)
    return DipoleSet(mu, left_mult(mu), right_mult(mu), system.theta)


@dataclass(frozen=True)
class GridSpec:
    """Uniform detuning axes for the 2D grid, relative to the carrier omega:
    ``count`` >= 2 points over a finite, increasing range."""

    count: int = 256
    lo: float = -0.5
    hi: float = 0.5

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("grid count must be >= 2")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"grid range needs finite endpoints, got {self.lo}:{self.hi}")
        if not self.lo < self.hi:
            raise ValueError("grid range must be increasing")

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.count - 1)


@dataclass
class SpectrumGrid:
    """R(3)(omega_tau, t2, omega_t) on a uniform detuning grid.

    values[i, j] is indexed (omega_tau_i, omega_t_j). metadata records every
    convention needed to regenerate the grid.
    """

    omega_tau_axis: np.ndarray
    omega_t_axis: np.ndarray
    t2: float
    values: np.ndarray
    metadata: dict = field(default_factory=dict)


def coherence_order(system: FockSystem) -> np.ndarray:
    """Delta q = (ket quanta - bra quanta) of every row-major vectorized state.

    H conserves quanta and every jump lowers ket and bra together, so the
    Liouvillian is block-diagonal in this label and the dipole superoperators
    shift it by +/- 1. A test label: the pathway solves on ``_closure`` sets.
    """
    q = system.total_quanta
    return np.repeat(q, system.dim) - np.tile(q, system.dim)


def _closure(pattern, support):
    """Sorted indices of the smallest L-invariant set holding ``support``:
    every state reachable from it along the nonzeros ``pattern`` of L."""
    reach = np.asarray(support, dtype=bool)
    while True:
        grown = reach | pattern[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _resolvents(block, shifts, rhs):
    """Row k is (shifts[k] I - block)^{-1} rhs, one batched LU per frequency."""
    shifted = np.broadcast_to(-block, (shifts.size,) + block.shape).copy()
    diag = np.arange(rhs.size)
    shifted[:, diag, diag] += shifts[:, None]
    b = np.broadcast_to(rhs[:, None], (shifts.size, rhs.size, 1))
    return np.linalg.solve(shifted, b)[..., 0]


def _apply(op, vecs):
    """op @ v for every row v of ``vecs``. einsum, not BLAS: each cell sums in
    an order that does not depend on how many rows are stacked, so a grid cell
    and a single-point evaluation agree bit for bit."""
    return np.einsum("jk,ik->ij", op, vecs)


def _pathway(system: FockSystem, dipole: DipoleSet, params: AnyonParams, t2: float,
             tau_axis: np.ndarray, t_axis: np.ndarray, jump_basis: str, conjugation: str,
             rho_eq: str) -> np.ndarray:
    """values[i, j] of the rephasing pathway at (tau_axis[i], t_axis[j]), after
    the input checks. Each cell depends only on its own two frequencies, so a
    grid cell and a one-point call agree bit for bit."""
    if system.cutoff < 2:
        raise ValueError("third-order spectra need the two-excitation manifold: cutoff >= 2")
    if params.gamma <= 0.0:
        raise ValueError("rephasing response requires gamma > 0 for convergent resolvents")
    if not (math.isfinite(t2) and t2 >= 0.0):
        raise ValueError(f"t2 must be finite and >= 0, got {t2}")
    if rho_eq not in RHO_EQ:
        raise ValueError(f"unknown rho_eq {rho_eq!r}; expected one of {RHO_EQ}")
    liouv = build_liouvillian(system, params, jump_basis, conjugation, rotating=True)
    pattern = liouv != 0
    rho0 = system.vacuum_projector() if rho_eq == "vacuum" else system.thermal_diagonal(params)
    # vec(rho0 mu) and the row vector of rho -> tr(rho mu), from the d x d dipole
    v0 = (rho0 @ dipole.mu_matrix).ravel()
    tr_mu = dipole.mu_matrix.T.ravel()

    first = _closure(pattern, v0 != 0)
    x = _resolvents(liouv[np.ix_(first, first)], 1j * tau_axis, -v0[first])
    mid = _closure(pattern, np.any(dipole.mu_left[:, first] != 0, axis=1))
    z = _apply(dipole.mu_left[np.ix_(mid, first)], x)
    if t2 > 0.0:
        z = _apply(sla.expm(liouv[np.ix_(mid, mid)] * t2), z)
    last = _closure(pattern, np.any(dipole.mu_left[:, mid] != 0, axis=1))
    z = _apply(dipole.mu_left[np.ix_(last, mid)], z)
    # per-column left vectors: y_j = (shifted_j^T)^{-1} (-tr_mu)
    y = _resolvents(liouv[np.ix_(last, last)].T, -1j * t_axis, -tr_mu[last])
    return _apply(y, z) * (1j) ** 3


def rephasing_response(system: FockSystem, dipole: DipoleSet, params: AnyonParams,
                       t2: float = 0.0, grid: GridSpec | None = None,
                       jump_basis: str = DEFAULT_JUMP_BASIS,
                       conjugation: str = DEFAULT_CONJUGATION,
                       rho_eq: str = "vacuum",
                       threads: int = 1) -> SpectrumGrid:
    """Rephasing third-order response on a 2D detuning grid.

    Pathway, applied right to left exactly in the printed order: bra-side
    mu, conjugate-interval resolvent at omega_tau (sign -1), ket-side mu,
    population propagation over t2, ket-side mu, ket-interval resolvent at
    omega_t (sign +1), bra-side mu, trace, times (i/hbar)^3 with hbar = 1.
    The Liouvillian is built in the rotating frame (carrier omega removed).

    Each interval is solved on the forward closure R of its right-hand side
    under the nonzeros of L (``_closure``): L[rest, R] == 0, so the solves,
    the t2 propagator and the left vectors (s I - L^T)^{-1} tr_mu restrict
    exactly to L[R, R], one batched solve per interval for all frequencies.
    Vacuum closures hold 2, 5 and 10 states at any cutoff (the last 6 at
    theta = pi), so a vacuum grid does not depend on the cutoff. The display
    axes carry the echo convention (both negated relative to the raw
    transform frequencies) so the photon-echo feature lands at positive
    detunings.
    ``threads`` is accepted for interface stability; the work is array-wide.
    """
    if grid is None:
        grid = GridSpec()
    axis = grid.axis()
    values = _pathway(system, dipole, params, t2, axis, axis, jump_basis, conjugation, rho_eq)
    meta = {
        "theta": params.theta, "xi": params.xi, "omega": params.omega,
        "coupling_j": params.coupling_j, "gamma": params.gamma, "beta": params.beta,
        "cutoff": system.cutoff, "t2": t2, "rho_eq": rho_eq,
        # build_hamiltonian's exchange amplitude is always J cos(theta/2)
        "frequency": "appendix", "jump_basis": jump_basis, "conjugation": conjugation,
        "grid": {"count": grid.count, "lo": grid.lo, "hi": grid.hi},
        "axes": "detuning from carrier omega; echo convention (first interval sign -1 "
                "at -omega_tau, third interval sign +1 at -omega_t; both axes negated "
                "for display so the echo lands at positive detuning)",
        "first_interval_axis": "omega_tau",
        "prefactor": "(i/hbar)^3, hbar = 1",
    }
    return SpectrumGrid(axis.copy(), axis.copy(), t2, values, meta)


def response_point(system: FockSystem, dipole: DipoleSet, params: AnyonParams,
                   omega_tau: float, omega_t: float, t2: float = 0.0,
                   jump_basis: str = DEFAULT_JUMP_BASIS,
                   conjugation: str = DEFAULT_CONJUGATION,
                   rho_eq: str = "vacuum") -> complex:
    """Single-point evaluation, bit-identical to the matching grid cell."""
    values = _pathway(system, dipole, params, t2, np.array([float(omega_tau)]),
                      np.array([float(omega_t)]), jump_basis, conjugation, rho_eq)
    return complex(values[0, 0])


def rephasing_response_quadrature(system: FockSystem, dipole: DipoleSet, params: AnyonParams,
                                  axis: np.ndarray, t2: float = 0.0,
                                  jump_basis: str = DEFAULT_JUMP_BASIS,
                                  conjugation: str = DEFAULT_CONJUGATION,
                                  horizon_factor: float = 20.0,
                                  dt: float = 0.05) -> np.ndarray:
    """Time-domain oracle for the response: Simpson quadrature of the interval
    integrals -int_0^T e^{-s i w t} e^{Lt} v dt with T = horizon_factor/gamma,
    replacing every resolvent solve. Independent of the LU path."""
    axis = np.asarray(axis, dtype=float)
    liouv = build_liouvillian(system, params, jump_basis, conjugation, rotating=True)
    rho0 = system.vacuum_projector()
    v0 = dipole.mu_right @ rho0.ravel()
    tr_mu = trace_vector(system.dim) @ dipole.mu_right
    horizon = horizon_factor / params.gamma
    nsteps = int(round(horizon / dt))
    if nsteps % 2 == 1:
        nsteps += 1
    step = sla.expm(liouv * dt)
    times = np.arange(nsteps + 1) * dt
    simpson = np.ones(nsteps + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= dt / 3.0

    def trajectory(vec):
        traj = np.empty((nsteps + 1, vec.size), dtype=complex)
        x = vec.astype(complex)
        for k in range(nsteps + 1):
            traj[k] = x
            x = step @ x
        return traj

    def integral(traj, sign, w):
        phases = np.exp(-sign * 1j * w * times)
        return -(simpson * phases) @ traj

    prop_t2 = sla.expm(liouv * t2) if t2 > 0.0 else None
    n = len(axis)
    out = np.empty((n, n), dtype=complex)
    first_traj = trajectory(v0)
    for i, wtau in enumerate(axis):
        z = dipole.mu_left @ integral(first_traj, -1, -wtau)
        if prop_t2 is not None:
            z = prop_t2 @ z
        z = dipole.mu_left @ z
        third_traj = trajectory(z)
        for j, wt in enumerate(axis):
            out[i, j] = np.dot(tr_mu, integral(third_traj, +1, -wt))
    return out * (1j) ** 3


@dataclass
class LineshapeMetrics:
    peak_detuning: float
    asymmetry: float
    dispersiveness: float


def diagonal_slice(grid: SpectrumGrid):
    """Values along omega_t = omega_tau. Requires identical square axes."""
    if grid.values.shape[0] != grid.values.shape[1]:
        raise ValueError("diagonal slice needs a square grid")
    if not np.array_equal(grid.omega_tau_axis, grid.omega_t_axis):
        raise ValueError("diagonal slice needs identical omega_tau and omega_t axes")
    return grid.omega_tau_axis.copy(), np.diagonal(grid.values).copy()


def lineshape_metrics(detunings: np.ndarray, values: np.ndarray) -> LineshapeMetrics:
    """Quantify a diagonal slice.

    peak_detuning: argmax |value|. asymmetry: first moment of Re about the
    peak, normalized by the integrated |Re| and the half-span. dispersiveness:
    1 - |Re(peak)|/max|Re|, 0 for a purely absorptive profile and approaching
    1 for a derivative-like one.
    """
    detunings = np.asarray(detunings, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.size == 0:
        raise ValueError("empty slice")
    i = int(np.argmax(np.abs(values)))
    re = values.real
    denom = np.sum(np.abs(re))
    half_span = max(abs(detunings[-1] - detunings[0]) / 2.0, np.finfo(float).tiny)
    asym = float(np.sum((detunings - detunings[i]) * re) / (denom * half_span)) if denom > 0 else 0.0
    max_re = np.max(np.abs(re))
    disp = float(1.0 - abs(re[i]) / max_re) if max_re > 0 else 0.0
    return LineshapeMetrics(float(detunings[i]), asym, disp)


def bright_mode_overlay(theta_grid: np.ndarray, params: AnyonParams,
                        frequency_convention: str = DEFAULT_FREQUENCY_CONVENTION,
                        conjugation: str = DEFAULT_CONJUGATION,
                        stat_dephasing: bool = False) -> np.ndarray:
    """Branch-continuous oscillation detunings of the effective-matrix modes.

    For each theta: the two eigenvalue imaginary parts of W_eff converted to
    detunings from the carrier (-Im(lambda) - omega), labelled by continuity
    along the sweep. Returns an array of rows (theta, nu_first, nu_second,
    re_first, re_second).
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    pts = ParamArrays.over(params, theta=theta_grid)
    first, second = match_branches(*weff_eigenvalues(*weff_entries(
        pts, frequency_convention, conjugation, stat_dephasing)))
    return np.column_stack([theta_grid, -first.imag - params.omega, -second.imag - params.omega,
                            first.real, second.real])


def bright_branch_detuning(params: AnyonParams,
                           frequency_convention: str = DEFAULT_FREQUENCY_CONVENTION,
                           conjugation: str = DEFAULT_CONJUGATION) -> float:
    """Detuning of the dipole-dominant ("bright") effective mode.

    The vacuum dipole excitation (|10> + |01>)/sqrt2 has amplitudes
    ((1 + g)/2, (1 - g)/2) on the deformed modes b~+/- = (a1 +/- g a2)/sqrt2,
    with the same g = e^{-i theta/2} as the Fock Hamiltonian and jump
    operators; the bright branch is the eigenvector with the larger overlap
    against that excitation.
    """
    w = build_weff(params, frequency_convention, conjugation)
    g = deformed_mode_phase(params.theta)
    bright = np.array([(1.0 + g) / 2.0, (1.0 - g) / 2.0], dtype=complex)
    bright /= np.linalg.norm(bright)
    weights = [abs(np.vdot(w.right_eigenvectors[:, k], bright)) for k in range(2)]
    lam = w.eigenvalues[int(np.argmax(weights))]
    return -lam.imag - params.omega
