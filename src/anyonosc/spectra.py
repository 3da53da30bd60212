"""Third-order rephasing 2D spectra: the braided d x d dipole acting from the
ket or bra side, frequency grids via resolvent solves, diagonal-slice
lineshapes and the bright branch's detuning."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dimer import (DEFAULT_CONJUGATION, DEFAULT_FREQUENCY_CONVENTION, build_weff,
                    deformed_mode_phase)
from .fock import FockSystem, _kron_sum, build_liouvillian, expm, liouvillian_terms
from .params import AnyonParams

DEFAULT_JUMP_BASIS = "site"  # fig-3 style spectra; logged in grid metadata
QUADRATURE_STEP = 0.05  # time step of the quadrature oracle
# the most quanta a state of the vacuum rephasing pathway holds: two in the
# ket after the third dipole (the two-exciton bound), one in the bra
PATHWAY_QUANTA = 2


def build_dipole(system: FockSystem, conjugation: str = DEFAULT_CONJUGATION) -> np.ndarray:
    """Braided d x d dipole: the mode-1 phase string dresses the local mode-2 terms.

    Built as the sum of the braided pair operators, mu = a1 + a1° + a2 + a2°,
    which equals the string-dressed form
    mu = a1° + a1 + e^{-i theta N1} (1 (x) a°) + e^{+i theta N1} (1 (x) a);
    the string sign follows the braided cross relation a1 a2° = e^{-i theta}
    a2° a1 of the worked two-mode algebra. Every pathway that raises mode 2
    past an occupied mode 1 picks up the exchange phase; at theta = 0 the
    strings are trivial and mu reduces to the plain sum of site dipoles.
    On row-major vectorized states (index ket * d + bra) the ket-side action
    rho -> mu rho is mu (x) 1 and the bra-side action rho -> rho mu is 1 (x) mu^T.
    """
    if system.modes != 2:
        raise ValueError("dipole requires a two-mode system")
    a1, a2 = system.lowering
    return a1 + system.dagger(0, conjugation) + a2 + system.dagger(1, conjugation)


@dataclass(frozen=True)
class GridSpec:
    """Uniform detuning axes for the 2D grid, relative to the carrier omega:
    ``count`` >= 2 strictly increasing points over a finite range and span."""

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
        if not (math.isfinite(float(self.hi) - float(self.lo))
                and np.all(np.diff(self.axis()) > 0.0)):
            raise ValueError(f"grid range {self.lo}:{self.hi} cannot hold {self.count} distinct "
                             "detunings with a finite step")

    def axis(self) -> np.ndarray:
        # near the float maximum linspace's last product may round to inf
        # before hi replaces it: the axis itself is finite
        with np.errstate(over="ignore"):
            return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SpectrumGrid:
    """R(3)(omega_tau, t2, omega_t) on a uniform detuning grid.

    values[i, j] is indexed (omega_tau = axis_i, omega_t = axis_j); values of
    another shape are a ValueError. metadata records what the run
    configuration cannot show: the equilibrium state, the splitting the Fock
    Hamiltonian used, and the axis, sign and prefactor conventions.
    """

    axis: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.axis.size
        if np.shape(self.values) != (n, n):
            raise ValueError(f"values {np.shape(self.values)} do not match a {n}-point axis")


def _closure(pattern, support):
    """Sorted indices of the smallest L-invariant set holding ``support``:
    every state reachable from it along the nonzeros ``pattern`` of L."""
    reach = np.asarray(support, dtype=bool)
    while True:
        grown = reach | pattern[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _low_liouvillian(system: FockSystem, params: AnyonParams, jump_basis: str,
                     conjugation: str):
    """(low, L_low): the states ``low`` of at most PATHWAY_QUANTA quanta and
    the rotating-frame Liouvillian on their row-major pairs P.

    At any cutoff >= 2, ``low`` is |00>, |01>, |02>, |10>, |11>, |20> in that
    order and L_low is 36 x 36. Entry (s, t) of sum c A (x) B reads A and B
    only at the kets and bras of s and t, so the factors restricted to
    ``low`` give L[P, P] bit for bit: ``_kron_sum`` sums the same products in
    the same order. The pathway never leaves P, because L maps a manifold
    pair (n, m) of ket and bra quanta only into (n, m) and (n - 1, m - 1).
    """
    low = np.flatnonzero(system.total_quanta <= PATHWAY_QUANTA)
    sub = np.ix_(low, low)
    terms = liouvillian_terms(system, params, jump_basis, conjugation, rotating=True)
    return low, _kron_sum([(c, a[sub], b[sub]) for c, a, b in terms], low.size)


def _reach(liouv):
    """The function support -> (R, L[R, R]): the closure R of the row-major
    states ``support`` (a boolean mask) under the nonzeros of ``liouv``."""
    pattern = liouv != 0

    def reach(support):
        inner = _closure(pattern, support.ravel())
        return inner, liouv[np.ix_(inner, inner)]

    return reach


def _ket_dipole(reach, mu, cols):
    """The closure ``rows`` of what the ket-side dipole mu (x) 1 reaches from
    the states ``cols``, with L[rows, rows] from ``reach`` and the block
    (mu (x) 1)[rows, cols]. A row-major state index is ket * d + bra, and mu
    acts on the ket alone."""
    d = mu.shape[0]
    support = np.zeros((d, d), dtype=bool)
    support.flat[cols] = True
    rows, liouv = reach((mu != 0) @ support)
    ket_r, bra_r = np.divmod(rows, d)
    ket_c, bra_c = np.divmod(cols, d)
    return rows, liouv, np.where(bra_r[:, None] == bra_c, mu[np.ix_(ket_r, ket_c)], 0)


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


def _pathway(params: AnyonParams, t2: float, tau_axis: np.ndarray, t_axis: np.ndarray,
             jump_basis: str, conjugation: str) -> np.ndarray:
    """values[i, j] of the rephasing pathway at (tau_axis[i], t_axis[j]), after
    the input checks. Each cell depends only on its own two frequencies, so a
    grid cell and a one-point call agree bit for bit."""
    if params.gamma <= 0.0:
        raise ValueError("rephasing response requires gamma > 0 for convergent resolvents")
    if not (math.isfinite(t2) and t2 >= 0.0):
        raise ValueError(f"t2 must be finite and >= 0, got {t2}")
    system = FockSystem(cutoff=PATHWAY_QUANTA, theta=params.theta)
    low, liouv = _low_liouvillian(system, params, jump_basis, conjugation)
    reach = _reach(liouv)
    sub = np.ix_(low, low)
    mu = build_dipole(system, conjugation)[sub]
    # vec(rho0 mu) from the vacuum rho0 and the row vector of rho -> tr(rho mu)
    v0 = (system.vacuum_projector()[sub] @ mu).ravel()
    tr_mu = mu.T.ravel()

    first, l_first = reach(v0 != 0)
    x = _resolvents(l_first, 1j * tau_axis, -v0[first])
    mid, l_mid, mu_mid = _ket_dipole(reach, mu, first)
    z = _apply(mu_mid, x)
    if t2 > 0.0:
        z = _apply(expm(l_mid * t2), z)
    last, l_last, mu_last = _ket_dipole(reach, mu, mid)
    z = _apply(mu_last, z)
    # per-column left vectors: y_j = (shifted_j^T)^{-1} (-tr_mu)
    y = _resolvents(l_last.T, -1j * t_axis, -tr_mu[last])
    return _apply(y, z) * (1j) ** 3


def rephasing_response(params: AnyonParams, *, t2: float = 0.0, grid: GridSpec | None = None,
                       jump_basis: str = DEFAULT_JUMP_BASIS,
                       conjugation: str = DEFAULT_CONJUGATION) -> SpectrumGrid:
    """Rephasing third-order response on a 2D detuning grid.

    The pathway starts from the vacuum, the only stationary state of a
    generator whose jumps all lower, as the third-order response formula
    assumes. Applied right to left exactly in the printed order: bra-side
    mu, conjugate-interval resolvent at omega_tau (sign -1), ket-side mu,
    population propagation over t2, ket-side mu, ket-interval resolvent at
    omega_t (sign +1), bra-side mu, trace, times (i/hbar)^3 with hbar = 1.
    The Liouvillian is built in the rotating frame (carrier omega removed).

    Each interval is solved on the forward closure R of its right-hand side
    under the nonzeros of L: L[rest, R] == 0, so the solves, the t2
    propagator and the left vectors (s I - L^T)^{-1} tr_mu restrict exactly
    to L[R, R], one batched solve per interval for all frequencies. From the
    vacuum every state holds at most PATHWAY_QUANTA ket quanta and one bra
    quantum, so the closures lie in the 36 pair states of |00>, |01>, |02>,
    |10>, |11>, |20>: their block of L is built once from the d x d factors
    (``_low_liouvillian``) of the cutoff-2 system at params.theta, with the
    dipole of ``conjugation``; the d^2 x d^2 Liouvillian never is. The
    closures hold 2, 5 and 10 states (6 at theta = pi). The display axes
    carry the echo convention (both negated relative to the raw transform
    frequencies) so the photon-echo feature lands at positive detunings.
    """
    if grid is None:
        grid = GridSpec()
    axis = grid.axis()
    values = _pathway(params, t2, axis, axis, jump_basis, conjugation)
    meta = {
        "rho_eq": "vacuum",
        # build_hamiltonian's exchange amplitude is always J cos(theta/2)
        "frequency": "appendix",
        "axes": "detuning from carrier omega; echo convention (first interval sign -1 "
                "at -omega_tau, third interval sign +1 at -omega_t; both axes negated "
                "for display so the echo lands at positive detuning)",
        "first_interval_axis": "omega_tau",
        "prefactor": "(i/hbar)^3, hbar = 1",
    }
    return SpectrumGrid(axis, values, meta)


def response_point(params: AnyonParams, omega_tau: float, omega_t: float, *, t2: float = 0.0,
                   jump_basis: str = DEFAULT_JUMP_BASIS,
                   conjugation: str = DEFAULT_CONJUGATION) -> complex:
    """Single-point evaluation, bit-identical to the matching grid cell."""
    for name, value in (("omega_tau", omega_tau), ("omega_t", omega_t)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    values = _pathway(params, t2, np.array([float(omega_tau)]), np.array([float(omega_t)]),
                      jump_basis, conjugation)
    return complex(values[0, 0])


def rephasing_response_quadrature(system: FockSystem, dipole: np.ndarray, params: AnyonParams,
                                  axis: np.ndarray, t2: float = 0.0,
                                  jump_basis: str = DEFAULT_JUMP_BASIS,
                                  conjugation: str = DEFAULT_CONJUGATION,
                                  horizon_factor: float = 20.0) -> np.ndarray:
    """Time-domain oracle for the response: Simpson quadrature (step QUADRATURE_STEP)
    of the interval integrals -int_0^T e^{-s i w t} e^{Lt} v dt, T = horizon_factor/gamma,
    replacing every resolvent solve. Independent of the LU path."""
    axis = np.asarray(axis, dtype=float)
    liouv = build_liouvillian(system, params, jump_basis, conjugation, rotating=True)
    v0 = (system.vacuum_projector() @ dipole).ravel()
    tr_mu = dipole.T.ravel()
    horizon = horizon_factor / params.gamma
    nsteps = int(round(horizon / QUADRATURE_STEP))
    if nsteps % 2 == 1:
        nsteps += 1
    step = expm(liouv * QUADRATURE_STEP)
    times = np.arange(nsteps + 1) * QUADRATURE_STEP
    simpson = np.ones(nsteps + 1)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= QUADRATURE_STEP / 3.0

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

    prop_t2 = expm(liouv * t2) if t2 > 0.0 else None
    n = len(axis)
    out = np.empty((n, n), dtype=complex)
    first_traj = trajectory(v0)
    for i, wtau in enumerate(axis):
        z = (dipole @ integral(first_traj, -1, -wtau).reshape(system.dim, -1)).ravel()
        if prop_t2 is not None:
            z = prop_t2 @ z
        z = (dipole @ z.reshape(system.dim, -1)).ravel()
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
    """(axis, values) along omega_t = omega_tau."""
    return grid.axis.copy(), np.diagonal(grid.values).copy()


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
