"""Truncated Fock-space backend: braided ladder matrices, Hamiltonian and
Lindblad superoperator construction, exponential, resolvents and decay fits.

This is the brute-force oracle for the closed-form modules and the engine
behind the 2D spectra. The Liouvillian is one list of (c, A, B) Kronecker
terms over d x d factors (``liouvillian_terms``), summed from the nonzeros
of the factors (``_kron_sum``) into the dense array: 81x81 at the default
two-mode cutoff 2, and 2401x2401, 0.3% nonzero, at cutoff 6 for the
criterion-6 oracle. The spectra gather the same terms on the pair states
their pathway touches (``_kron_block``), a 15x15 block. The two-mode jump
operators take their coefficients from the channel table that also sets
W_eff (``dimer.channel_coefficients``).
"""

from __future__ import annotations

import math

import numpy as np

from .dimer import (CONJUGATION_CONVENTIONS, DEFAULT_CONJUGATION, channel_coefficients,
                    deformed_mode_phase, site_coefficients)
from .params import AnyonParams
from .rates import q_bracket, thermal_occupation

JUMP_BASES = ("site", "deformed")
FIT_RESIDUAL_FLAG = 1e-2  # a larger misfit marks a series fit_decay_rate cannot fit


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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices: the same products, without its
    n-dimensional bookkeeping."""
    n, m = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)


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
            self.lowering = (_kron(a, eye), _kron(p, a))
            self.raising = (_kron(adag, eye), _kron(pinv, adag))
            self.number_ops = (_kron(number, eye), _kron(eye, number))
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


def _kron_block(terms, kets: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """sum c * kron(A, B) on the row-major pair states (kets[i], bras[i]): entry (i, j)
    is sum c * A[kets[i], kets[j]] * B[bras[i], bras[j]], the terms added in order. With
    finite factors, ``_kron_sum``'s entries bit for bit (a product it skips is +-0 here)."""
    out = np.zeros((kets.size, kets.size), dtype=complex)
    for coeff, a, b in terms:
        out += coeff * a[np.ix_(kets, kets)] * b[np.ix_(bras, bras)]
    return out


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
      sqrt(gamma nbar (1 +/- xi)) (a1 +/- a2)/sqrt2, the default of the spectra
      and the CLI, on which acceptance criteria 7 and 8 run (its first
      moments do not reproduce W_eff away from xi = 0).

    The deformed basis reads ``dimer.channel_coefficients``, the site basis
    the literal scalars sqrt(gamma nbar (1 +/- xi)) of the same channels
    (``dimer.site_coefficients``). Single-mode systems use sqrt(gamma(n+1)) a
    and sqrt(gamma n) a.
    The adjoint of each pair follows the conjugation convention: Hermitian
    under "modulus", formal (unconjugated prefactors and entries) under
    "analytic".
    """
    if conjugation not in CONJUGATION_CONVENTIONS:
        raise ValueError(f"unknown conjugation convention {conjugation!r}")
    if system.modes == 1:
        nth = thermal_occupation(params.theta, params.beta, params.omega)
        a, ad = system.lowering[0], system.raising[0]
        scalars = [np.sqrt(complex(params.gamma) * nbar) for nbar in (nth + 1.0, nth)]
        ops = [(s * a, s * ad) for s in scalars]
    elif jump_basis not in JUMP_BASES:
        raise ValueError(f"unknown jump basis {jump_basis!r}")
    else:
        a1, a2 = system.lowering
        a1d, a2d = system.raising
        root2 = math.sqrt(2.0)
        if jump_basis == "site":
            ops = [(s * ((a1 + sgn * a2) / root2), s * ((a1d + sgn * a2d) / root2))
                   for s, sgn in zip(site_coefficients(params), (1, -1, 1, -1))]
        else:
            lam_plus, lam_minus, adj_plus, adj_minus = channel_coefficients(params, conjugation)
            g = deformed_mode_phase(params.theta)
            bp, bm = (a1 + g * a2) / root2, (a1 - g * a2) / root2
            bpd = (a1d + np.conj(g) * a2d) / root2
            bmd = (a1d - np.conj(g) * a2d) / root2
            ops = [(root2 * (lam_plus[k] * bp + lam_minus[k] * bm),
                    root2 * (adj_plus[k] * bpd + adj_minus[k] * bmd)) for k in range(4)]
    if conjugation == "modulus":
        return [(lop, lop.conj().T) for lop, _ in ops]
    return ops


def liouvillian_terms(system: FockSystem, params: AnyonParams,
                      jump_basis: str = "deformed",
                      conjugation: str = DEFAULT_CONJUGATION,
                      rotating: bool = False) -> list:
    """Generator of d rho/dt = -i[H, rho] + sum_k D[L_k] rho as (c, A, B) terms,
    L = sum c A (x) B on row-major vectorized states, with d x d factors.

    D[L] rho = L rho L° - (L°L rho + rho L°L)/2 with L° the configured
    adjoint. Trace preservation holds for any adjoint pair by construction.
    The terms are -i(H (x) 1 - 1 (x) H^T) and, per jump, L (x) L°^T -
    (L°L (x) 1 + 1 (x) (L°L)^T)/2, in that order. The system's ladder
    matrices and the parameters must share one theta.
    """
    if system.theta != params.theta:
        raise ValueError(f"FockSystem theta {system.theta!r} differs from "
                         f"params theta {params.theta!r}")
    h = build_hamiltonian(system, params, conjugation, rotating)
    eye = np.eye(system.dim)
    terms = [(-1j, h, eye), (1j, eye, h.T)]
    for lop, ldag in jump_operators(system, params, jump_basis, conjugation):
        ll = ldag @ lop
        # vec(L rho L°) = (L kron L°^T) vec(rho): sandwich terms are single krons
        terms += [(1.0, lop, ldag.T), (-0.5, ll, eye), (-0.5, eye, ll.T)]
    return terms


def build_liouvillian(system: FockSystem, params: AnyonParams,
                      jump_basis: str = "deformed",
                      conjugation: str = DEFAULT_CONJUGATION,
                      rotating: bool = False) -> np.ndarray:
    """The dense d^2 x d^2 generator of ``liouvillian_terms``, assembled from
    the nonzeros of its Kronecker factors, never from dense Kronecker
    products."""
    return _kron_sum(liouvillian_terms(system, params, jump_basis, conjugation, rotating),
                     system.dim)


# ---------------------------------------------------------------------------
# matrix exponential and resolvent

# coefficients b_0..b_13 of the [13/13] Pade numerator p(x) (the denominator
# is p(-x)) and the 1-norm theta_13 up to which it is accurate to double
# precision (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by [13/13] Pade scaling and squaring (Higham 2005).

    Scales by 2^-s until the 1-norm is at most theta_13 and applies the
    approximant as r - I = 2 (V - U)^{-1} U. The s squarings act on x = r - I
    as x <- 2x + x^2, so the modes whose eigenvalues sit near 1 (the kept
    trace, slow relaxation) keep their relative accuracy: squaring r itself
    multiplies the rounding of its entries near 1 by up to 2^s.
    """
    a = np.asarray(a)
    norm = np.linalg.norm(a, 1)
    if not math.isfinite(norm):
        raise ValueError("matrix exponential needs finite entries")
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    x = 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        x = 2.0 * x + x @ x
    return eye + x


def resolvent_apply(liouv: np.ndarray, omega: float, sign: int,
                    vector: np.ndarray) -> np.ndarray:
    """Frequency-domain solve x = (sign*i*omega*I - L)^{-1} (-vector).

    Equals -int_0^inf e^{-sign i omega t} e^{Lt} v dt whenever the integral
    converges. sign +1 is the ket-evolution interval, -1 the conjugate
    (rephasing) interval. Solved by ``np.linalg.solve``, the LAPACK path of the
    spectra's batched resolvents; the dense reference the spectra's block
    solves are tested against.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    shifted = sign * 1j * omega * np.eye(liouv.shape[0], dtype=complex) - liouv
    return np.linalg.solve(shifted, -np.asarray(vector, dtype=complex))


def fit_decay_rate(times: np.ndarray, series: np.ndarray):
    """Least-squares fit of A e^{(-rate - i freq) t} to a complex series.

    Log-linear fit with unwrapped phase; returns (rate, freq, residual,
    flagged) where residual is the normalized misfit of the reconstructed
    exponential and flagged is residual > FIT_RESIDUAL_FLAG, which marks a
    non-exponential signal (e.g. the polynomial-times-exponential dynamics
    near an exceptional point).
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
    return rate, freq, residual, residual > FIT_RESIDUAL_FLAG
