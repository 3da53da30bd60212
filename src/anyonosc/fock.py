"""Truncated Fock-space backend: braided ladder matrices, Hamiltonian and
Lindblad superoperator construction, propagation, resolvents and decay fits.

This is the brute-force oracle for the closed-form modules and the engine
behind the 2D spectra. Superoperators are dense arrays assembled from the
nonzeros of their Kronecker factors (``_kron_sum``): 81x81 at the default
two-mode cutoff 2, 256x256 at cutoff 3 (fig3) and 2401x2401 at cutoff 6 (the
criterion-6 oracle), of which 0.3% is nonzero. The spectra solve only on the
states a pathway reaches through its nonzeros (``spectra._closure``). The
two-mode jump operators take their coefficients from the channel table that
also sets W_eff (``dimer.channel_coefficients``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .dimer import DEFAULT_CONJUGATION, channel_coefficients, deformed_mode_phase
from .params import AnyonParams
from .rates import q_bracket, thermal_occupation

JUMP_BASES = ("site", "deformed")


def anyon_ladder_matrix(cutoff: int, theta: float) -> np.ndarray:
    """Single-mode lowering operator a|n> = sqrt([n]_q)|n-1>, principal branch.

    [n]_q = (1 - e^{i theta n})/(1 - e^{i theta}) reduces to n at theta = 0 and
    enforces aa+ - e^{i theta} a+a = 1 below the cutoff (with the transpose,
    entry-preserving raising partner).
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    d = cutoff + 1
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(q_bracket(n, theta))
    return a


class FockSystem:
    """Truncated one- or two-mode Fock representation of the braided algebra.

    Stores the lowering matrices and their *formal* raising partners (transpose
    with unconjugated entries, plus the inverse phase string on mode 2), which
    satisfy the deformed commutation relations exactly below the cutoff.
    Hermitian adjoints are available via ``dagger`` for the "modulus"
    convention.
    """

    def __init__(self, cutoff: int = 2, theta: float = 0.0, modes: int = 2):
        if modes not in (1, 2):
            raise ValueError(f"modes must be 1 or 2, got {modes}")
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        self.cutoff = cutoff
        self.theta = theta
        self.modes = modes
        d = cutoff + 1
        a = anyon_ladder_matrix(cutoff, theta)
        adag = a.T.copy()  # formal raising partner: same sqrt([n]_q) entries
        number = np.diag(np.arange(d).astype(complex))
        eye = np.eye(d, dtype=complex)
        self.phase_string = np.diag(np.exp(1j * theta * np.arange(d)))
        if modes == 1:
            self.dim = d
            self.lowering = (a,)
            self.raising = (adag,)
            self.number_ops = (number,)
        else:
            # braided embedding: a1 = a (x) 1, a2 = P (x) a with P = e^{i theta N}
            # on mode 1, which guarantees a1 a2 = e^{i theta} a2 a1
            self.dim = d * d
            p = self.phase_string
            pinv = np.conj(p)
            self.lowering = (np.kron(a, eye), np.kron(p, a))
            self.raising = (np.kron(adag, eye), np.kron(pinv, adag))
            self.number_ops = (np.kron(number, eye), np.kron(eye, number))
        self.total_quanta = np.sum(self.number_ops, axis=0).real.diagonal().round().astype(int)

    def dagger(self, mode: int, conjugation: str = DEFAULT_CONJUGATION) -> np.ndarray:
        """Raising operator for one mode: Hermitian adjoint under "modulus",
        the stored formal partner under "analytic"."""
        if conjugation == "modulus":
            return self.lowering[mode].conj().T
        if conjugation == "analytic":
            return self.raising[mode]
        raise ValueError(f"unknown conjugation convention {conjugation!r}")

    def vacuum_projector(self) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    def thermal_diagonal(self, params: AnyonParams) -> np.ndarray:
        """Diagonal Boltzmann state over total quanta (optional rho_eq)."""
        w = np.exp(-params.beta * params.omega * self.total_quanta)
        rho = np.diag(w / w.sum()).astype(complex)
        return rho


# ---------------------------------------------------------------------------
# superoperator helpers (row-major vectorization: vec(A rho B) = (A kron B^T) vec rho)

def _kron_sum(terms, dim: int) -> np.ndarray:
    """Dense sum of c * kron(A, B) over (c, A, B) terms with dim x dim factors.

    Each term is scattered from the nonzeros of A and B alone: entry
    (ia*dim + ib, ja*dim + jb) receives c * A[ia, ja] * B[ib, jb], and terms
    accumulate entry by entry in the order given.
    """
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for coeff, a, b in terms:
        ia, ja = np.nonzero(a)
        ib, jb = np.nonzero(b)
        rows = (ia[:, None] * dim + ib).ravel()
        cols = (ja[:, None] * dim + jb).ravel()
        np.add.at(out, (rows, cols), np.multiply.outer(coeff * a[ia, ja], b[ib, jb]).ravel())
    return out


def left_mult(op: np.ndarray) -> np.ndarray:
    dim = op.shape[0]
    return _kron_sum([(1.0, op, np.eye(dim))], dim)


def right_mult(op: np.ndarray) -> np.ndarray:
    dim = op.shape[0]
    return _kron_sum([(1.0, np.eye(dim), op.T)], dim)


def trace_vector(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex).ravel()


def build_hamiltonian(system: FockSystem, params: AnyonParams,
                      conjugation: str = DEFAULT_CONJUGATION,
                      rotating: bool = False) -> np.ndarray:
    """H = omega (N1 + N2) + J cos(theta/2) (g a1+ a2 + g* a2+ a1), true number
    operators, with g = e^{-i theta/2} (``dimer.deformed_mode_phase``).

    The exchange term is written on the deformed normal modes
    b~+/- = (a1 +/- g a2)/sqrt2: it equals J cos(theta/2) (b~+° b~+ - b~-° b~-),
    so the one-excitation block is diagonal in b~+/- with eigenvalues
    omega +/- J cos(theta/2), the "appendix" ``normal_mode_frequencies``.
    Only that splitting reaches the Fock route. At theta = 0 it reduces to the
    boson hopping J (a1+ a2 + a2+ a1), bit for bit.

    ``rotating`` subtracts omega * (N1 + N2), leaving only the exchange term
    (the frame used by the spectra). Single-mode systems get H = omega N.
    """
    n_total = np.sum(system.number_ops, axis=0)
    h = np.zeros((system.dim, system.dim), dtype=complex) if rotating else params.omega * n_total
    if system.modes == 2:
        a1, a2 = system.lowering
        a1d = system.dagger(0, conjugation)
        a2d = system.dagger(1, conjugation)
        g = deformed_mode_phase(params.theta)
        amplitude = params.coupling_j * math.cos(params.theta / 2.0)
        h = h + amplitude * (g * (a1d @ a2) + np.conj(g) * (a2d @ a1))
    return h


def jump_operators(system: FockSystem, params: AnyonParams,
                   jump_basis: str = "deformed",
                   conjugation: str = DEFAULT_CONJUGATION):
    """Lindblad jump operators and their adjoints, as (L, L°) pairs.

    All four channels are lowering-type, exactly as the model's printed
    channel structure: emission with rate gamma(n_theta + 1), absorption with
    gamma n_theta and no sign flip. Two realizations:

    - "deformed": the dimer-model channel coefficients on the deformed-mode
      matrices b~+/- = (a1 +/- g a2)/sqrt2, g = e^{-i theta/2}, the modes that
      diagonalize ``build_hamiltonian``; scaled by sqrt(2) so the generator's
      first-moment equations reproduce the effective matrix W_eff exactly
      (the Delta q = +1 block contains both W_eff eigenvalues).
    - "site": the literal collective combinations
      sqrt(gamma nbar (1 +/- xi)) (a1 +/- a2)/sqrt2, kept for comparison (its
      first moments do not reproduce W_eff away from xi = 0).

    Both read ``dimer.channel_coefficients``: the site scalar is
    2 lambda_+ = sqrt(gamma nbar (1 +/- xi)) of each channel. Single-mode
    systems use sqrt(gamma(n+1)) a and sqrt(gamma n) a.
    The adjoint of each pair follows the conjugation convention: Hermitian
    under "modulus", formal (unconjugated prefactors and entries) under
    "analytic".
    """
    if system.modes == 1:
        nth = thermal_occupation(params.theta, params.beta, params.omega)
        a, ad = system.lowering[0], system.raising[0]
        scalars = [np.sqrt(complex(params.gamma) * nbar) for nbar in (nth + 1.0, nth)]
        ops = [(s * a, s * ad) for s in scalars]
    elif jump_basis not in JUMP_BASES:
        raise ValueError(f"unknown jump basis {jump_basis!r}")
    else:
        lam_plus, lam_minus, adj_plus, adj_minus = channel_coefficients(params, conjugation)
        a1, a2 = system.lowering
        a1d, a2d = system.raising
        root2 = math.sqrt(2.0)
        if jump_basis == "site":
            # a power-of-two scale does not round: 2 lambda_+ is the literal rate
            ops = [(2.0 * lam_plus[k] * ((a1 + sgn * a2) / root2),
                    2.0 * adj_plus[k] * ((a1d + sgn * a2d) / root2))
                   for k, sgn in enumerate((1, -1, 1, -1))]
        else:
            g = deformed_mode_phase(params.theta)
            bp, bm = (a1 + g * a2) / root2, (a1 - g * a2) / root2
            bpd = (a1d + np.conj(g) * a2d) / root2
            bmd = (a1d - np.conj(g) * a2d) / root2
            ops = [(root2 * (lam_plus[k] * bp + lam_minus[k] * bm),
                    root2 * (adj_plus[k] * bpd + adj_minus[k] * bmd)) for k in range(4)]
    if conjugation == "modulus":
        return [(lop, lop.conj().T) for lop, _ in ops]
    return ops


def build_liouvillian(system: FockSystem, params: AnyonParams,
                      jump_basis: str = "deformed",
                      conjugation: str = DEFAULT_CONJUGATION,
                      rotating: bool = False) -> np.ndarray:
    """Vectorized generator of d rho/dt = -i[H, rho] + sum_k D[L_k] rho.

    D[L] rho = L rho L° - (L°L rho + rho L°L)/2 with L° the configured
    adjoint. Trace preservation holds for any adjoint pair by construction.
    The dense result is assembled from the nonzeros of the Kronecker factors
    of -i(H (x) 1 - 1 (x) H^T) and, per jump, L (x) L°^T - (L°L (x) 1 +
    1 (x) (L°L)^T)/2, never from dense Kronecker products.
    """
    h = build_hamiltonian(system, params, conjugation, rotating)
    eye = np.eye(system.dim)
    terms = [(-1j, h, eye), (1j, eye, h.T)]
    for lop, ldag in jump_operators(system, params, jump_basis, conjugation):
        ll = ldag @ lop
        # vec(L rho L°) = (L kron L°^T) vec(rho): sandwich terms are single krons
        terms += [(1.0, lop, ldag.T), (-0.5, ll, eye), (-0.5, eye, ll.T)]
    return _kron_sum(terms, system.dim)


# ---------------------------------------------------------------------------
# states and propagation

@dataclass
class DensityState:
    """Density matrix with defect diagnostics instead of hard positivity checks
    (positivity is not guaranteed for intermediate theta)."""

    matrix: np.ndarray

    @property
    def trace(self) -> complex:
        return np.trace(self.matrix)

    def trace_defect(self) -> float:
        return abs(self.trace - 1.0)

    def hermiticity_defect(self) -> float:
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T))

    def min_eigenvalue(self) -> float:
        sym = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(sym).min())

    def expectation(self, op: np.ndarray) -> complex:
        return np.trace(op @ self.matrix)


def propagate(liouv: np.ndarray, state: DensityState, t: float) -> DensityState:
    """Propagate the vectorized state through exp(L t) (scaling-and-squaring)."""
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t == 0.0:
        return DensityState(state.matrix.copy())
    d = state.matrix.shape[0]
    vec = sla.expm(liouv * t) @ state.matrix.ravel()
    return DensityState(vec.reshape(d, d))


def steady_state(liouv: np.ndarray) -> DensityState:
    """Unit-trace kernel vector of the generator (smallest singular vector)."""
    dim2 = liouv.shape[0]
    d = int(round(math.sqrt(dim2)))
    _, _, vh = np.linalg.svd(liouv)
    rho = vh[-1].conj().reshape(d, d)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise np.linalg.LinAlgError("kernel vector is traceless; no stationary state found")
    return DensityState(rho / tr)


def resolvent_apply(liouv: np.ndarray, omega: float, sign: int, vector: np.ndarray,
                    return_condition: bool = False):
    """Frequency-domain solve x = (sign*i*omega*I - L)^{-1} (-vector).

    Equals -int_0^inf e^{-sign i omega t} e^{Lt} v dt whenever the integral
    converges. sign +1 is the ket-evolution interval, -1 the conjugate
    (rephasing) interval. Optionally returns a one-norm condition estimate of
    the shifted matrix.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    shifted = sign * 1j * omega * np.eye(liouv.shape[0], dtype=complex) - liouv
    lu, piv = sla.lu_factor(shifted)
    x = sla.lu_solve((lu, piv), -np.asarray(vector, dtype=complex))
    if not return_condition:
        return x
    gecon = sla.get_lapack_funcs(("gecon",), (shifted,))[0]
    rcond, _ = gecon(lu, np.linalg.norm(shifted, 1), norm="1")
    cond = float(1.0 / rcond) if rcond > 0 else float("inf")
    return x, cond


def fit_decay_rate(times: np.ndarray, series: np.ndarray, residual_tol: float = 1e-2):
    """Least-squares fit of A e^{(-rate - i freq) t} to a complex series.

    Log-linear fit with unwrapped phase; returns (rate, freq, residual) where
    residual is the normalized misfit of the reconstructed exponential. A
    residual above ``residual_tol`` marks a non-exponential signal (e.g. the
    polynomial-times-exponential dynamics near an exceptional point).
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=complex)
    if times.shape != series.shape or times.size < 3:
        raise ValueError("times and series must be equal-length with at least 3 samples")
    mags = np.abs(series)
    keep = mags > 1e-12 * mags.max()
    t, s = times[keep], series[keep]
    logs = np.log(np.abs(s)) + 1j * np.unwrap(np.angle(s))
    slope, intercept = np.polyfit(t, logs, 1)
    rate, freq = -slope.real, -slope.imag
    model = np.exp(intercept) * np.exp(slope * t)
    residual = float(np.linalg.norm(model - s) / np.linalg.norm(s))
    return rate, freq, residual, residual > residual_tol
