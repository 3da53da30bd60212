"""The array-valued closed-form layer against the per-point loop it replaced.

The reference functions below are the previous scalar implementations of the
rates, the per-point channel objects, W_eff, its eigen-analysis, branch
matching and the sweep generators, kept here verbatim (renamed, with the old
``AnyonParams.z``, math.exp(-beta*omega), spelled out), and the
exceptional-point locator's repeated scan one angle at a time, as the oracle
for the tolerances the README's Conventions section states.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonosc import AnyonParams, ParamArrays, ParameterError
from anyonosc.dimer import (DEFAULT_CONJUGATION, EP_COARSE_POINTS, EP_CONDITION_MARKER,
                            EP_GAP_FACTOR, EP_ZOOM_POINTS, build_weff, channel_coefficients,
                            dissipative_rates, find_exceptional_point,
                            match_branches, normal_mode_frequencies, weff_eigenvalues,
                            weff_entries)
from anyonosc.params import BETA_OMEGA_FLOOR
from anyonosc.spectra import GridSpec
from anyonosc.sweeps import (GENERATORS, RunConfig, Conventions, SweepAxis, run_fig1, run_fig2,
                             run_sweep)

ULP = np.finfo(float).eps
SVD_FLOOR = 0.25 / ULP  # a condition beyond this is sigma_min at LAPACK's round-off
CONVENTIONS = list(itertools.product(("appendix", "maintext"), ("modulus", "analytic"),
                                     (False, True)))


# -- reference: the previous per-point implementation --------------------------

def reference_z(params):
    return math.exp(-params.beta * params.omega)


def reference_thermal_occupation(theta: float, beta: float, omega: float) -> complex:
    bw = beta * omega
    if bw < BETA_OMEGA_FLOOR:
        raise ParameterError(f"beta*omega = {bw:g} below floor {BETA_OMEGA_FLOOR:g}")
    return 1.0 / (math.exp(bw) - cmath.exp(1j * theta))


def reference_phase_average(theta: float, z: float) -> complex:
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z}")
    return (1.0 - z) / (1.0 - z * cmath.exp(1j * theta))


def reference_gamma_stat(theta: float, z: float, gamma: float) -> float:
    if gamma < 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z}")
    # the cancellation-free form: 1 - Re<e^{i theta N}> spelled out misses it
    # by 5e-8 at theta = 2.5e-6, beta*omega = 5.1e-5, inside these ranges
    one_minus_c = 1.0 - math.cos(theta)
    denom = (1.0 - z) ** 2 + 2.0 * z * one_minus_c
    return 0.5 * gamma * z * one_minus_c * (1.0 + z) / denom


def reference_gamma_full_single(params) -> complex:
    nth = reference_thermal_occupation(params.theta, params.beta, params.omega)
    re_avg = reference_phase_average(params.theta, reference_z(params)).real
    return 0.5 * params.gamma * (2.0 * nth + 1.0 + (1.0 - re_avg))


def reference_normal_mode_frequencies(params, convention):
    c = math.cos(params.theta / 2.0) if convention == "appendix" else math.cos(params.theta)
    return params.omega + params.coupling_j * c, params.omega - params.coupling_j * c


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


def reference_lindblad_coefficients(params) -> ChannelSet:
    nth = reference_thermal_occupation(params.theta, params.beta, params.omega)
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
    """The W_eff record the reference fills in: built with its entries and
    mode frequencies, then analysed in place by reference_eigen_analysis."""

    entries: np.ndarray
    omega_plus: float
    omega_minus: float
    eigenvalues: tuple | None = None
    right_eigenvectors: np.ndarray | None = None
    lifetimes: tuple | None = None
    eigenvector_condition: float | None = None
    near_defective: bool = False

    @property
    def gap(self) -> float:
        lp, lm = self.eigenvalues
        return abs(lp - lm)


def reference_build_weff(params, frequency_convention="appendix", conjugation="modulus",
                         stat_dephasing=False) -> EffectiveMatrix:
    wp, wm = reference_normal_mode_frequencies(params, frequency_convention)
    chans = reference_lindblad_coefficients(params)
    gpp = chans.dissipative_sum("plus", "plus", conjugation)
    gmm = chans.dissipative_sum("minus", "minus", conjugation)
    gpm = chans.dissipative_sum("plus", "minus", conjugation)
    gmp = chans.dissipative_sum("minus", "plus", conjugation)
    a = -1j * wp - gpp
    d = -1j * wm - gmm
    if stat_dephasing:
        extra = reference_gamma_stat(params.theta, reference_z(params), params.gamma)
        a -= extra
        d -= extra
    w = EffectiveMatrix(entries=np.array([[a, -gpm], [-gmp, d]], dtype=complex),
                        omega_plus=wp, omega_minus=wm)
    return reference_eigen_analysis(w)


def _reference_eigvec(a, b, c, d, lam):
    if abs(b) + abs(a - lam) >= abs(c) + abs(d - lam):
        v = np.array([b, lam - a], dtype=complex)
    else:
        v = np.array([lam - d, c], dtype=complex)
    n = np.linalg.norm(v)
    if n == 0.0:  # diagonal matrix: canonical basis vector
        v = np.array([1.0, 0.0], complex) if abs(a - lam) <= abs(d - lam) else np.array([0.0, 1.0], complex)
        n = 1.0
    return v / n


def reference_eigen_analysis(matrix: EffectiveMatrix) -> EffectiveMatrix:
    (a, b), (c, d) = matrix.entries
    disc = (a - d) ** 2 + 4.0 * b * c
    if abs(disc.imag) <= 1e-12 * (abs(a - d) ** 2 + 4.0 * abs(b * c)):
        disc = complex(disc.real, 0.0)
    root = np.sqrt(disc)
    lp = 0.5 * (a + d + root)
    lm = 0.5 * (a + d - root)
    if b == 0 and c == 0:  # diagonal: the basis vectors, lp's of its nearer entry
        vmat = np.eye(2, dtype=complex)
        if abs(a - lp) > abs(d - lp):
            vmat = vmat[:, ::-1]
    else:
        vmat = np.column_stack([_reference_eigvec(a, b, c, d, lp),
                                _reference_eigvec(a, b, c, d, lm)])
    sv = np.linalg.svd(vmat, compute_uv=False)
    cond = float(sv[0] / sv[1]) if sv[1] > 0.0 else float("inf")
    matrix.eigenvalues = (lp, lm)
    matrix.right_eigenvectors = vmat
    with np.errstate(over="ignore"):  # a subnormal decay rate: lifetime inf
        matrix.lifetimes = tuple(
            (1.0 / -l.real) if l.real < 0.0 else float("inf") for l in (lp, lm)
        )
    matrix.eigenvector_condition = cond
    matrix.near_defective = cond > EP_CONDITION_MARKER
    return matrix


def reference_match_branches(previous: tuple, current: tuple) -> tuple:
    keep = abs(current[0] - previous[0]) + abs(current[1] - previous[1])
    swap = abs(current[1] - previous[0]) + abs(current[0] - previous[1])
    return current if keep <= swap else (current[1], current[0])


def reference_labels(pairs):
    """The sequential fold of reference_match_branches over raw pairs."""
    out, prev = [], None
    for pair in pairs:
        prev = tuple(pair) if prev is None else reference_match_branches(prev, tuple(pair))
        out.append(prev)
    return out


def reference_find_exceptional_point(params, theta_bracket=None, frequency_convention="appendix",
                                     conjugation="modulus", stat_dephasing=False):
    """The locator's repeated scan, one reference_build_weff per angle: 512
    angles over the bracket, then 33 over the two cells around each minimum."""
    if theta_bracket is None:
        theta_bracket = (0.0, math.pi - 0.01)
    lo, hi = theta_bracket

    def gap_at(theta):
        p = params.with_(theta=theta)
        return reference_build_weff(p, frequency_convention, conjugation, stat_dephasing).gap

    grid = np.linspace(lo, hi, 512)
    while True:
        k = int(np.argmin([gap_at(t) for t in grid]))
        a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
        if b - a <= 1e-14:
            break
        grid = np.linspace(a, b, 33)
    theta_star = 0.5 * (a + b)
    return theta_star, gap_at(theta_star)


def reference_fig1_rows(config):
    axis = next(ax for ax in config.sweep if ax.name == "theta")
    p = config.params

    def one(theta):
        pt = p.with_(theta=float(theta))
        full = reference_gamma_full_single(pt)
        return (float(theta), reference_gamma_stat(pt.theta, reference_z(pt), pt.gamma),
                full.real, full.imag)

    return [one(theta) for theta in axis.values()]


def reference_fig2_rows(config):
    """Rows of the previous run_fig2 loop, each with the W_eff it came from."""
    axis = next(ax for ax in config.sweep if ax.name == "theta")
    conv = config.conventions
    p = config.params
    threshold = 1e-6 * p.gamma
    rows, mats = [], []
    for xi in config.xi_list:
        prev = None
        for theta in axis.values():
            w = reference_build_weff(p.with_(theta=float(theta), xi=float(xi)),
                                     conv.frequency, conv.conjugation, conv.stat_dephasing)
            pair = w.eigenvalues if prev is None else reference_match_branches(prev, w.eigenvalues)
            prev = pair
            gap = abs(pair[0] - pair[1])
            (_, b), (c, _) = w.entries  # a diagonal W_eff has no exceptional point
            rows.append((float(theta), float(xi),
                         pair[0].real, pair[1].real, pair[0].imag, pair[1].imag,
                         gap, int(gap < threshold and (b != 0 or c != 0))))
            mats.append(w)
    return rows, mats


def reference_sweep_rows(config):
    """Rows of the previous run_sweep loop, each with the W_eff it came from."""
    conv = config.conventions
    p = config.params
    grids = [ax.values() for ax in config.sweep]
    names = [ax.name for ax in config.sweep]
    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)

    def one(point):
        pt = p.with_(**{n: float(v) for n, v in zip(names, point)})
        full = reference_gamma_full_single(pt)
        w = reference_build_weff(pt, conv.frequency, conv.conjugation, conv.stat_dephasing)
        lp, lm = w.eigenvalues
        return tuple(float(v) for v in point) + (
            reference_gamma_stat(pt.theta, reference_z(pt), pt.gamma), full.real, full.imag,
            lp.real, lp.imag, lm.real, lm.imag, abs(lp - lm)), w

    out = [one(point) for point in points]
    return [r for r, _ in out], [w for _, w in out]


# -- tolerances -------------------------------------------------------------

def assert_ulps(got, ref, n=16):
    """|got - ref| <= n ulp of max(1, |ref|), elementwise."""
    got, ref = np.asarray(got), np.asarray(ref)
    bound = n * ULP * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(got - ref) <= bound), np.max(np.abs(got - ref) / bound)


def eig_bound(w) -> float:
    """1e-14 max(1, ||W||) + sqrt(1e-14 (|A - D|^2 + 4|BC|)): the eigenvalue
    tolerance, widened by the square root of the discriminant's scale that
    makes an exceptional point sensitive to the last bits of the entries."""
    (a, b), (c, d) = w.entries
    return (1e-14 * max(1.0, float(np.linalg.norm(w.entries)))
            + math.sqrt(1e-14 * (abs(a - d) ** 2 + 4.0 * abs(b * c))))


# -- strategies ---------------------------------------------------------------

_theta = st.one_of(st.sampled_from((0.0, math.pi)), st.floats(0.0, math.pi))
_xi = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 0.3)), st.floats(-1.0, 1.0))
_params = st.builds(
    AnyonParams, theta=_theta, xi=_xi,
    omega=st.floats(0.05, 5.0), coupling_j=st.floats(-1.0, 1.0),
    gamma=st.floats(0.0, 2.0), beta=st.floats(1e-3, 20.0))
_conventions = st.sampled_from(CONVENTIONS)
_ranges = {"theta": st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)),
           "xi": st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           "omega": st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
           "coupling_j": st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           "gamma": st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
           "beta": st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0))}


@st.composite
def _axes(draw):
    names = draw(st.lists(st.sampled_from(sorted(_ranges)), min_size=1, max_size=2, unique=True))
    axes = []
    for name in names:
        start, stop = draw(_ranges[name])
        axes.append(SweepAxis(name, start, stop, draw(st.integers(2, 9))))
    return tuple(axes)


def _conv(fc, cj, sd):
    return Conventions(frequency=fc, conjugation=cj, stat_dephasing=sd)


# -- properties ----------------------------------------------------------------

class TestOnePointAgainstReference:
    @settings(deadline=None, max_examples=300)
    @given(_params, _conventions)
    def test_weff_point(self, p, conventions):
        fc, cj, sd = conventions
        ref = reference_build_weff(p, fc, cj, sd)
        got = build_weff(p, fc, cj, sd)
        assert_ulps(got.entries, ref.entries)
        chans = reference_lindblad_coefficients(p)
        assert_ulps(dissipative_rates(p, cj),
                    [chans.dissipative_sum(i, j, cj) for i, j in
                     (("plus", "plus"), ("minus", "minus"), ("plus", "minus"), ("minus", "plus"))])
        assert_ulps(normal_mode_frequencies(p, fc), reference_normal_mode_frequencies(p, fc))
        bound = eig_bound(ref)
        assert abs(got.eigenvalues[0] - ref.eigenvalues[0]) <= bound
        assert abs(got.eigenvalues[1] - ref.eigenvalues[1]) <= bound
        assert abs(got.gap - ref.gap) <= 2.0 * bound
        assert got.near_defective == ref.near_defective
        if ref.eigenvector_condition > SVD_FLOOR:
            # sigma_min at the SVD's round-off: an exactly parallel pair of
            # eigenvectors, for which the closed form gives |det| = 0 and inf
            assert got.eigenvector_condition > SVD_FLOOR
        else:
            assert got.eigenvector_condition == pytest.approx(ref.eigenvector_condition, rel=1e-6)

    @settings(deadline=None, max_examples=300)
    @given(_params)
    def test_channel_table(self, p):
        chans = list(reference_lindblad_coefficients(p))
        for cj in ("modulus", "analytic"):
            lam_plus, lam_minus, adj_plus, adj_minus = channel_coefficients(p, cj)
            assert np.array_equal(lam_plus, [ch.lambda_plus for ch in chans])
            assert np.array_equal(lam_minus, [ch.lambda_minus for ch in chans])
            assert np.array_equal(adj_plus, [ch.conjugated("plus", cj) for ch in chans])
            assert np.array_equal(adj_minus, [ch.conjugated("minus", cj) for ch in chans])

    @settings(deadline=None, max_examples=300)
    @given(_params)
    def test_rates_point(self, p):
        from anyonosc.rates import gamma_full_single, gamma_stat
        assert_ulps(gamma_full_single(p), reference_gamma_full_single(p))
        assert_ulps(gamma_stat(p.theta, p.z, p.gamma),
                    reference_gamma_stat(p.theta, reference_z(p), p.gamma))


class TestSweepsAgainstReference:
    @settings(deadline=None, max_examples=60)
    @given(_params, _conventions, _axes())
    def test_run_sweep(self, p, conventions, axes):
        config = RunConfig(params=p, sweep=axes, conventions=_conv(*conventions))
        ref_rows, mats = reference_sweep_rows(config)
        got = run_sweep(config)
        ref = np.array(ref_rows)
        rows = np.asarray(got.rows)
        assert rows.shape == ref.shape
        k = len(axes)
        assert np.array_equal(rows[:, :k], ref[:, :k])
        assert_ulps(rows[:, k:k + 3], ref[:, k:k + 3])
        bound = np.array([eig_bound(w) for w in mats])[:, None]
        assert np.all(np.abs(rows[:, k + 3:k + 7] - ref[:, k + 3:k + 7]) <= bound)
        assert np.all(np.abs(rows[:, k + 7] - ref[:, k + 7]) <= 2.0 * bound[:, 0])

    @settings(deadline=None, max_examples=60)
    @given(_params, _conventions, st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)),
           st.integers(2, 40), st.lists(_xi, min_size=1, max_size=3))
    def test_run_fig2_labels(self, p, conventions, span, count, xis):
        config = RunConfig(params=p, conventions=_conv(*conventions), xi_list=tuple(xis),
                           sweep=(SweepAxis("theta", span[0], span[1], count),))
        ref_rows, mats = reference_fig2_rows(config)
        ref = np.array(ref_rows)
        rows = np.asarray(run_fig2(config).rows)
        assert rows.shape == ref.shape
        assert np.array_equal(rows[:, :2], ref[:, :2])
        bound = np.array([eig_bound(w) for w in mats])
        # the same labels: each branch column against the same reference column
        assert np.all(np.abs(rows[:, 2:6] - ref[:, 2:6]) <= bound[:, None])
        assert np.all(np.abs(rows[:, 6] - ref[:, 6]) <= 2.0 * bound)
        threshold = EP_GAP_FACTOR * p.gamma
        moved = rows[:, 7] != ref[:, 7]
        assert np.all(np.abs(ref[moved, 6] - threshold) <= 2.0 * bound[moved])

    @settings(deadline=None, max_examples=60)
    @given(_params, st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)),
           st.integers(2, 40))
    def test_run_fig1(self, p, span, count):
        config = RunConfig(params=p, sweep=(SweepAxis("theta", span[0], span[1], count),))
        ref = np.array(reference_fig1_rows(config))
        rows = np.asarray(run_fig1(config).rows)
        assert np.array_equal(rows[:, 0], ref[:, 0])
        assert_ulps(rows[:, 1:], ref[:, 1:])

    @pytest.mark.parametrize("fc, cj, sd", CONVENTIONS)
    def test_bright_mode_overlay(self, fc, cj, sd):
        # fig3's overlay: 201 angles over the panels' span, at each panel xi;
        # at beta = 0.1 and xi = 0.9 the raw (lambda_+, lambda_-) order of
        # over 100 appendix/modulus angles differs from the labelled one
        p = AnyonParams(theta=0.0, beta=0.1)
        xis = (0.9, 0.0)
        config = RunConfig(params=p, conventions=Conventions(fc, cj, stat_dephasing=sd),
                           grid=GridSpec(count=2), theta_list=(0.0, math.pi), xi_list=xis)
        got = GENERATORS["fig3-overlay"](config).rows
        thetas = np.linspace(0.0, math.pi, 201)
        ref, bound = [], []
        for xi in xis:
            mats = [reference_build_weff(p.with_(theta=float(t), xi=xi), fc, cj, sd)
                    for t in thetas]
            pairs = reference_labels([w.eigenvalues for w in mats])
            ref += [(t, xi, -a.imag - p.omega, -b.imag - p.omega, a.real, b.real)
                    for t, (a, b) in zip(thetas, pairs)]
            bound += [eig_bound(w) for w in mats]
        ref, bound = np.array(ref), np.array(bound)[:, None]
        assert np.array_equal(got[:, :2], ref[:, :2])
        assert np.all(np.abs(got[:, 2:] - ref[:, 2:]) <= bound)


class TestValidationPerPoint:
    @pytest.mark.parametrize("name, start, stop", [
        ("theta", 0.0, 4.0), ("xi", -2.0, 1.0), ("omega", -1.0, 1.0), ("gamma", 0.2, -0.2),
        ("beta", -1.0, 1.0), ("beta", 1e-12, 2e-12), ("coupling_j", -5.0, 5.0)])
    def test_first_offending_point_and_message(self, name, start, stop):
        # a parameter swept twice is a ConfigError: theta's second axis is xi
        second = SweepAxis("xi", -1.0, 1.5, 4) if name == "theta" else SweepAxis(
            "theta", 0.0, 3.5, 4)
        axes = (SweepAxis(name, start, stop, 5), second)
        config = RunConfig(params=AnyonParams(theta=0.0), sweep=axes)
        try:
            reference_sweep_rows(config)
        except ParameterError as exc:
            want = str(exc)
        else:
            want = None
        if want is None:
            run_sweep(config)
            return
        with pytest.raises(ParameterError) as got:
            run_sweep(config)
        assert str(got.value) == want


def _bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def assert_same_labels(first, second, pairs):
    ref = np.array(reference_labels(pairs), dtype=complex).reshape(-1, 2)
    assert np.array_equal(_bits(first), _bits(ref[:, 0]))
    assert np.array_equal(_bits(second), _bits(ref[:, 1]))


_pool = st.sampled_from((0.0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                         -0.1 - 1.0j, -0.1 - 1.0j + 1e-17, -0.2 - 0.8j, -0.15 - 0.9j, 1.0, -1.0))


class TestBranchMatchingFold:
    """match_branches against a sequential fold of the previous pairwise rule."""

    @settings(deadline=None, max_examples=400)
    @given(st.lists(st.tuples(_pool, _pool), min_size=1, max_size=30))
    def test_pool_sequences_with_ties(self, pairs):
        first, second = match_branches([p[0] for p in pairs], [p[1] for p in pairs])
        assert_same_labels(first, second, pairs)

    @pytest.mark.parametrize("pairs", [
        # after a swap, a degenerate pair and then the pair after it are ties
        # (keep == swap): both restart the label in raw order
        [(-1.0 - 1.0j, -0.5 - 1.0j), (-0.5 - 1.0j, -1.0 - 1.0j), (-0.7 - 1.0j, -0.7 - 1.0j),
         (-0.5 - 1.0j, -1.0 - 1.0j), (-0.5 - 1.1j, -1.0 - 0.9j)],
        # swap, tie, tie, swap: the ties reset the running XOR
        [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (2.0, 1.0), (1.0, 2.0), (1.0, 2.0)],
        # a signed-zero pair after a swap is a tie: raw order, bit for bit
        [(1.0, 2.0), (2.0, 1.0), (0.0j, complex(-0.0, 0.0)), (complex(-0.0, -0.0), 0.0j),
         (complex(0.0, -0.0), 0.0j)],
        # a NaN makes both comparisons false: the previous rule swaps
        [(1.0, 2.0), (complex(math.nan, 0.0), 2.0), (1.0, 2.0), (2.0, 1.0)],
    ], ids=["degenerate-previous", "xor-reset", "signed-zeros", "nan"])
    def test_fixed_sequences(self, pairs):
        first, second = match_branches([p[0] for p in pairs], [p[1] for p in pairs])
        assert_same_labels(first, second, pairs)

    @pytest.mark.parametrize("fc", ["appendix", "maintext"])
    def test_scalar_weff_at_the_fermion_point(self, fc):
        # at theta = pi and xi = 0 the appendix W_eff is a multiple of the identity
        p = AnyonParams(theta=0.0, xi=0.0)
        thetas = np.concatenate([np.linspace(0.0, math.pi, 9), np.linspace(math.pi, 2.0, 5)])
        pairs = [reference_build_weff(p.with_(theta=float(t)), fc).eigenvalues for t in thetas]
        first, second = match_branches([a for a, _ in pairs], [b for _, b in pairs])
        assert_same_labels(first, second, pairs)

    def test_rows_are_independent_sequences(self):
        rng = np.random.default_rng(4)
        values = np.round(rng.normal(size=(3, 2, 25)) + 1j * rng.normal(size=(3, 2, 25)), 1)
        values[1, 1, 5:9] = values[1, 0, 5:9]  # ties inside the middle row
        first, second = match_branches(values[:, 0], values[:, 1])
        for row in range(3):
            assert_same_labels(first[row], second[row], list(zip(values[row, 0], values[row, 1])))


# locator brackets: the default, inner, touching 0 and pi, and narrow ones whose
# refinement bracket starts just above the 1e-14 stop (one coarse cell of
# 1.02e-14 at 5.2e-12, two of it at 2.6e-12), or below it (no step at all)
_BRACKETS = (None, (0.1, 3.0), (0.0, math.pi), (0.0, 0.4), (2.7, math.pi),
             (1.0, 1.0 + 2.6e-12), (0.0, 5.2e-12), (math.pi - 5.2e-12, math.pi),
             (2.0, 2.0 + 1.1e-14))


class TestExceptionalPointAgainstReference:
    @pytest.mark.parametrize("kwargs, bracket, conventions", [
        (dict(xi=1.0), None, ("appendix", "modulus", False)),
        (dict(xi=0.3), None, ("appendix", "modulus", False)),
        (dict(xi=0.0), None, ("appendix", "modulus", False)),
        (dict(xi=-0.8, beta=0.1), None, ("maintext", "modulus", False)),
        (dict(xi=1.0, gamma=0.05, coupling_j=0.1), (1.0, 3.1), ("appendix", "analytic", False)),
        (dict(xi=0.6, beta=2.5), None, ("appendix", "modulus", True)),
        (dict(xi=1.0, gamma=0.0), None, ("maintext", "analytic", True)),
        (dict(xi=0.9, beta=0.3, gamma=0.2), (0.5, math.pi), ("maintext", "modulus", False)),
    ])
    def test_theta_star(self, kwargs, bracket, conventions):
        p = AnyonParams(theta=0.0, **kwargs)
        ref_theta, ref_gap = reference_find_exceptional_point(p, bracket, *conventions)
        got = find_exceptional_point(p, bracket, *conventions)
        assert got.theta == pytest.approx(ref_theta, abs=1e-9)
        assert abs(got.gap - ref_gap) <= 2.0 * eig_bound(
            reference_build_weff(p.with_(theta=ref_theta), *conventions))

    @settings(deadline=None, max_examples=100)
    @given(_params, _conventions, st.sampled_from(_BRACKETS))
    def test_refines_on_the_one_point_gap(self, p, conventions, bracket):
        # the locator's array gap against the same repeated scan driven by build_weff
        def gap_at(theta):
            return build_weff(p.with_(theta=theta), *conventions).gap

        lo, hi = bracket or (0.0, math.pi - 0.01)
        grid = np.linspace(lo, hi, EP_COARSE_POINTS)
        while True:
            k = int(np.argmin([gap_at(t) for t in grid]))
            a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
            if b - a <= 1e-14:
                break
            grid = np.linspace(a, b, EP_ZOOM_POINTS)
        theta_star = 0.5 * (a + b)
        got = find_exceptional_point(p, bracket, *conventions)
        assert got.theta == theta_star
        assert got.gap == gap_at(theta_star)

    # the bound adds 4 ulps of the gap, which at beta * omega ~ 1e-4 is about
    # 1e4 gamma and rounds in steps of 4e-12 gamma; gamma starts at 0.01 because
    # the gap is taken at the midpoint of a 1e-14 bracket, which adds the gap's
    # slope times 5e-15 whatever gamma is (up to 1e-14 measured, down to gamma = 0)
    @settings(deadline=None, max_examples=200)
    @given(st.builds(AnyonParams, theta=_theta, xi=_xi, omega=st.floats(0.05, 5.0),
                     coupling_j=st.floats(-1.0, 1.0), gamma=st.floats(0.01, 2.0),
                     beta=st.floats(1e-3, 20.0)),
           _conventions, st.sampled_from(_BRACKETS))
    def test_gap_is_at_most_the_coarse_minimum(self, p, conventions, bracket):
        lo, hi = bracket or (0.0, math.pi - 0.01)
        grid = ParamArrays.over(p, theta=np.linspace(lo, hi, EP_COARSE_POINTS))
        lp, lm = weff_eigenvalues(*weff_entries(grid, *conventions))
        got = find_exceptional_point(p, bracket, *conventions)
        assert lo <= got.theta <= hi
        coarse = np.min(np.abs(lp - lm))
        assert got.gap <= coarse + 1e-12 * p.gamma + 4 * ULP * coarse
