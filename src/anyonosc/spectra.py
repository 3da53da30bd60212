"""Third-order rephasing 2D spectra: the braided d x d dipole acting from the
ket or bra side, frequency grids as the product of two resolvent factors, and
diagonal-slice lineshapes."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dimer import DEFAULT_CONJUGATION
from .fock import FockSystem, _kron_block, build_liouvillian, expm, liouvillian_terms
from .params import AnyonParams

DEFAULT_JUMP_BASIS = "site"  # fig-3 style spectra; logged in grid metadata
QUADRATURE_STEP = 0.05  # time step of the quadrature oracle
# the most quanta a state of the vacuum rephasing pathway holds: two in the
# ket after the third dipole (the two-exciton bound), one in the bra
PATHWAY_QUANTA = 2
# the manifold pairs (ket quanta, bra quanta) R1, R2, R3 of the states after
# each dipole (R1 lies in R3); L keeps or lowers both quanta, so it leaves no union
_INTERVAL_PAIRS = (((0, 1),), ((0, 0), (1, 1)), ((0, 1), (1, 0), (2, 1)))


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


class SpectrumGrid:
    """R(3)(omega_tau, t2, omega_t) on a uniform detuning grid.

    values[i, j] is indexed (omega_tau = axis_i, omega_t = axis_j). The grid
    holds the factors x of omega_tau and w of omega_t, each (axis.size, k),
    and forms values = x w^T on first read. metadata records what the run
    configuration cannot show: the equilibrium state, the splitting the Fock
    Hamiltonian used, and the axis, sign and prefactor conventions.
    """

    def __init__(self, axis: np.ndarray, x: np.ndarray, w: np.ndarray,
                 metadata: dict | None = None):
        if np.ndim(x) != 2 or np.shape(x) != np.shape(w) or len(x) != axis.size:
            raise ValueError(f"factors {np.shape(x)} and {np.shape(w)} do not match a "
                             f"{axis.size}-point axis")
        self.axis, self.metadata = axis, {} if metadata is None else metadata
        self._factors = x, w

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The n x n cells, formed on first read, read-only."""
        values = np.einsum("ik,jk->ij", *self._factors)
        values.flags.writeable = False
        return values

    def diagonal(self) -> np.ndarray:
        """values[i, i], always the row-wise product of the factors."""
        return np.einsum("ik,ik->i", *self._factors)


@functools.cache
def _pathway_states(quanta: tuple):
    """(kets, bras, intervals): the pair states of the manifold pairs in ``_INTERVAL_PAIRS``
    in row-major order, as ket and bra indices over the states of ``quanta``, and the
    positions of R1, R2 and R3 among them. Cached, so read-only."""
    q = np.array(quanta)
    kets, bras = np.nonzero(sum(np.outer(q == k, q == b) for k, b in set().union(*_INTERVAL_PAIRS)))
    labels = list(zip(q[kets].tolist(), q[bras].tolist()))
    intervals = tuple(np.flatnonzero([p in pairs for p in labels]) for pairs in _INTERVAL_PAIRS)
    for states in (kets, bras, *intervals):
        states.flags.writeable = False
    return kets, bras, intervals


def _pathway_blocks(system, mu, params, jump_basis, conjugation):
    """On ``system`` (any cutoff) with the d x d dipole ``mu``: the rotating-frame L[R, R]
    of R1, R2, R3 and the ket-side (mu (x) 1)[R2, R1], [R3, R2], each taken by position
    from one gather (``_kron_block``) on the pair states of R2 + R3; vec(rho0 mu) on R1,
    mu[0, bra] (every R1 ket is the vacuum); the row of tr(. mu) on R3, mu[bra, ket]."""
    kets, bras, (first, mid, last) = _pathway_states(tuple(system.total_quanta.tolist()))
    terms = liouvillian_terms(system, params, jump_basis, conjugation, rotating=True)
    liouv = _kron_block(terms, kets, bras)
    ket_mu = _kron_block([(1.0, mu, np.eye(system.dim))], kets, bras)
    return ([liouv[np.ix_(r, r)] for r in (first, mid, last)],
            [ket_mu[np.ix_(mid, first)], ket_mu[np.ix_(last, mid)]],
            mu[0, bras[first]], mu[bras[last], kets[last]])


def _resolvents(block, shifts, rhs):
    """Row k is (shifts[k] I - block)^{-1} rhs, one batched LU per frequency."""
    shifted = np.broadcast_to(-block, (shifts.size,) + block.shape).copy()
    diag = np.arange(rhs.size)
    shifted[:, diag, diag] += shifts[:, None]
    b = np.broadcast_to(rhs[:, None], (shifts.size, rhs.size, 1))
    return np.linalg.solve(shifted, b)[..., 0]


def _apply(op, vecs):
    """op @ v for every row v of ``vecs``. einsum, not BLAS: each entry sums in
    an order that does not depend on how many rows are stacked, so a factor's
    row, and so a grid cell, has the same bits in a grid and at a single point."""
    return np.einsum("jk,ik->ij", op, vecs)


def _pathway(params: AnyonParams, t2: float, tau_axis: np.ndarray, t_axis: np.ndarray,
             jump_basis: str, conjugation: str):
    """The factors (x, w) of the pathway, after the input checks: the cell at (tau_axis[i],
    t_axis[j]) is sum_k x[i, k] w[j, k]. Each row of a factor depends only on its own
    frequency, so a grid cell and a one-point call agree bit for bit."""
    if params.gamma <= 0.0:
        raise ValueError("rephasing response requires gamma > 0 for convergent resolvents")
    if not (math.isfinite(t2) and t2 >= 0.0):
        raise ValueError(f"t2 must be finite and >= 0, got {t2}")
    system = FockSystem(cutoff=PATHWAY_QUANTA, theta=params.theta)
    (l_first, l_mid, l_last), (mu_mid, mu_last), v0, tr_mu = _pathway_blocks(
        system, build_dipole(system, conjugation), params, jump_basis, conjugation)
    x = _resolvents(l_first, 1j * tau_axis, -v0)
    p = expm(l_mid * t2) @ mu_mid if t2 > 0.0 else mu_mid
    # per-column left vectors: y_j = (shifted_j^T)^{-1} (-tr_mu)
    y = _resolvents(l_last.T, -1j * t_axis, -tr_mu)
    return x, _apply((mu_last @ p).T, y) * (1j) ** 3


def rephasing_response(params: AnyonParams, *, t2: float = 0.0, grid: GridSpec | None = None,
                       jump_basis: str = DEFAULT_JUMP_BASIS,
                       conjugation: str = DEFAULT_CONJUGATION) -> SpectrumGrid:
    """Rephasing third-order response on a 2D detuning grid.

    The pathway starts from the vacuum, the only stationary state of a
    generator whose jumps all lower, as the third-order response formula
    assumes. The printed order, right to left: bra-side mu,
    conjugate-interval resolvent at omega_tau (sign -1), ket-side mu,
    population propagation over t2, ket-side mu, ket-interval resolvent at
    omega_t (sign +1), bra-side mu, trace, times (i/hbar)^3 with hbar = 1.
    The Liouvillian is built in the rotating frame (carrier omega removed).

    R1 holds 2 states, so the grid has rank <= 2: the (N x 2) R1 solves x at omega_tau
    times w = (i)^3 P^T y, the R3 left vectors y at omega_t contracted with P = mu_last
    e^{L t2} mu_mid (10 x 2). The grid keeps x and w; its N^2 cells form on first read.

    Each interval is solved on a union R of manifold pairs (ket quanta, bra
    quanta), 2, 5 and 10 states (``_INTERVAL_PAIRS``). L keeps or lowers both
    quanta together, so L[rest, R] == 0 and every interval restricts exactly
    to L[R, R], one batched solve per interval for all frequencies. Its blocks
    come from one gather of the cutoff-2 Kronecker factors on the 15 pair
    states of R2 + R3 (``_pathway_blocks``). The display axes carry the
    echo convention (both negated relative to the raw transform
    frequencies) so the photon-echo feature lands at positive detunings.
    """
    params.require_point("rephasing_response")
    if grid is None:
        grid = GridSpec()
    axis = grid.axis()
    x, w = _pathway(params, t2, axis, axis, jump_basis, conjugation)
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
    return SpectrumGrid(axis, x, w, meta)


def response_point(params: AnyonParams, omega_tau: float, omega_t: float, *, t2: float = 0.0,
                   jump_basis: str = DEFAULT_JUMP_BASIS,
                   conjugation: str = DEFAULT_CONJUGATION) -> complex:
    """Single-point evaluation: the 1 x 1 grid of the pathway's factors,
    bit-identical to the matching grid cell and diagonal entry."""
    params.require_point("response_point")
    for name, value in (("omega_tau", omega_tau), ("omega_t", omega_t)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    x, w = _pathway(params, t2, np.array([float(omega_tau)]), np.array([float(omega_t)]),
                    jump_basis, conjugation)
    return complex(np.einsum("ik,jk->ij", x, w)[0, 0])


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
    """(axis, values) along omega_t = omega_tau; forms no other cell."""
    return grid.axis.copy(), grid.diagonal()


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
