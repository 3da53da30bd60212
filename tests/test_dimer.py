import cmath
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anyonosc.dimer
from anyonosc import (AnyonParams, ParamArrays, ParameterError, build_weff,
                      channel_coefficients, find_exceptional_point, gamma_full_single,
                      normal_mode_frequencies)
from anyonosc.dimer import (CONJUGATION_CONVENTIONS, FREQUENCY_CONVENTIONS, EffectiveMatrix, _mul,
                            dissipative_rates, match_branches, site_coefficients,
                            weff_eigenvalues, weff_entries)
from anyonosc.rates import gamma_stat, phase_average, thermal_occupation


def brute_force_eigs(entries):
    return np.linalg.eigvals(entries)


def multiset_close(a, b, tol):
    a, b = list(a), list(b)
    direct = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
    swapped = max(abs(a[0] - b[1]), abs(a[1] - b[0]))
    return min(direct, swapped) <= tol


class TestNormalModeFrequencies:
    def test_boson_point_both_conventions(self):
        p = AnyonParams(theta=0.0, coupling_j=0.2)
        assert normal_mode_frequencies(p, "appendix") == pytest.approx((1.2, 0.8))
        assert normal_mode_frequencies(p, "maintext") == pytest.approx((1.2, 0.8))

    def test_fermion_point_appendix_degenerate(self):
        p = AnyonParams(theta=math.pi, coupling_j=0.2)
        wp, wm = normal_mode_frequencies(p, "appendix")
        assert wp == pytest.approx(1.0, abs=1e-15)
        assert wm == pytest.approx(1.0, abs=1e-15)

    def test_half_angle_value(self):
        p = AnyonParams(theta=math.pi / 2, coupling_j=0.2)
        wp, wm = normal_mode_frequencies(p, "appendix")
        assert wp == pytest.approx(1.0 + 0.2 * math.cos(math.pi / 4), abs=1e-12)
        assert wm == pytest.approx(1.0 - 0.2 * math.cos(math.pi / 4), abs=1e-12)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            normal_mode_frequencies(AnyonParams(theta=0.1), "bogus")


# channel_coefficients' leading axis: emission +, emission -, absorption +, absorption -
EMISSION_PLUS = 0


class TestChannelCoefficients:
    def test_perfect_correlation_kills_minus_channels(self):
        lam_plus, lam_minus, _, _ = channel_coefficients(AnyonParams(theta=0.4, xi=1.0))
        for k in (1, 3):
            assert lam_plus[k] == 0.0
            assert lam_minus[k] == 0.0

    def test_emission_coefficient_value(self):
        lam_plus, _, _, _ = channel_coefficients(AnyonParams(theta=0.0, xi=0.0, beta=1.0, gamma=0.1))
        want = math.sqrt(0.1 * (1.0 + 1.0 / (math.e - 1.0))) / 2.0
        assert lam_plus[EMISSION_PLUS] == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.19887, abs=1e-5)

    def test_relative_phase_is_minus_half_angle(self):
        for theta in (0.3, 1.1, 2.6):
            lam_plus, lam_minus, _, _ = channel_coefficients(AnyonParams(theta=theta, xi=0.4))
            ratio = lam_minus[EMISSION_PLUS] / lam_plus[EMISSION_PLUS]
            assert cmath.phase(ratio) == pytest.approx(-theta / 2.0, abs=1e-12)

    def test_diagonal_sum_consistent_magnitude(self):
        p = AnyonParams(theta=1.3, xi=0.6, gamma=0.1)
        from anyonosc.rates import thermal_occupation
        nth = thermal_occupation(p.theta, p.beta, p.omega)
        lam_plus, _, adj_plus, _ = channel_coefficients(p, "modulus")
        got_mod = np.sum(lam_plus * adj_plus)
        assert got_mod == pytest.approx(0.1 * (abs(nth + 1) + abs(nth)) / 2.0, abs=1e-13)
        lam_plus, _, adj_plus, _ = channel_coefficients(p, "analytic")
        got_ana = np.sum(lam_plus * adj_plus)
        assert got_ana == pytest.approx(0.1 * (2 * nth + 1) / 2.0, abs=1e-13)

    def test_unknown_conjugation(self):
        with pytest.raises(ValueError):
            channel_coefficients(AnyonParams(theta=0.1), "bogus")

    def test_site_scalars_are_twice_lambda_plus_without_the_halving(self):
        for theta, xi in ((0.0, 0.0), (0.7, 0.3), (2.9, -1.0)):
            p = AnyonParams(theta=theta, xi=xi, beta=0.8)
            lam_plus, _, _, _ = channel_coefficients(p)
            assert np.array_equal(site_coefficients(p), 2.0 * lam_plus)
        # a subnormal theta gives n_theta a subnormal imaginary part; halving
        # it drops the last bit, so 2 lambda_+ is not the literal scalar
        p = AnyonParams(theta=2.2250738585e-313, xi=0.0, gamma=2.0, beta=1.0)
        nbar = thermal_occupation(p.theta, p.beta, p.omega)
        absorption = np.sqrt(complex(p.gamma) * nbar) * 1.0
        assert site_coefficients(p)[2] == absorption
        assert 2.0 * channel_coefficients(p)[0][2] != absorption


class TestBuildWeff:
    def test_offdiagonals_vanish_without_correlation(self):
        for theta in np.linspace(0.0, math.pi, 11):
            w = build_weff(AnyonParams(theta=theta, xi=0.0))
            assert abs(w.entries[0, 1]) <= 1e-14
            assert abs(w.entries[1, 0]) <= 1e-14

    def test_boson_diagonal_matches_single_oscillator_rate(self):
        p = AnyonParams(theta=0.0, xi=0.0, beta=1.0, gamma=0.1, coupling_j=0.2)
        w = build_weff(p)
        a = w.entries[0, 0]
        assert a.imag == pytest.approx(-1.2, abs=1e-12)
        assert -a.real == pytest.approx(gamma_full_single(p).real, abs=1e-12)
        assert -a.real == pytest.approx(0.1081977, abs=1e-6)

    def test_subnormal_decay_rate_has_infinite_lifetime_without_warning(self):
        # Re lambda is a negative subnormal: 1/-Re lambda overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = build_weff(AnyonParams(theta=0.3, gamma=1e-310))
        assert all(l.real < 0.0 for l in w.eigenvalues)
        assert w.lifetimes == (math.inf, math.inf)

    def test_closed_system_is_diagonal_frequencies(self):
        p = AnyonParams(theta=0.9, xi=0.5, gamma=0.0)
        w = build_weff(p)
        wp, wm = normal_mode_frequencies(p)
        assert w.entries[0, 0] == pytest.approx(-1j * wp)
        assert w.entries[1, 1] == pytest.approx(-1j * wm)
        assert w.entries[0, 1] == 0.0

    def test_diagonal_parts_independent_of_xi(self):
        for theta in (0.0, 0.8, 2.2):
            base = build_weff(AnyonParams(theta=theta, xi=0.0))
            for xi in (-1.0, -0.5, 0.5, 1.0):
                w = build_weff(AnyonParams(theta=theta, xi=xi))
                assert abs(w.entries[0, 0] - base.entries[0, 0]) <= 1e-12
                assert abs(w.entries[1, 1] - base.entries[1, 1]) <= 1e-12

    def test_eigenvalue_multiset_invariant_under_xi_sign(self):
        for theta in (0.3, 1.5, 2.7):
            for xi in (0.3, 0.7, 1.0):
                lp = build_weff(AnyonParams(theta=theta, xi=xi)).eigenvalues
                lm = build_weff(AnyonParams(theta=theta, xi=-xi)).eigenvalues
                assert multiset_close(lp, lm, 1e-12)

    def test_imaginary_parts_are_mode_frequencies(self):
        p = AnyonParams(theta=1.1, xi=0.4)
        w = build_weff(p)
        omega_plus, omega_minus = normal_mode_frequencies(p)
        assert w.entries[0, 0].imag == pytest.approx(-omega_plus, abs=1e-12)
        assert w.entries[1, 1].imag == pytest.approx(-omega_minus, abs=1e-12)

    def test_stat_dephasing_flag_adds_to_diagonals(self):
        from anyonosc.rates import gamma_stat
        p = AnyonParams(theta=1.2, xi=0.3)
        w0 = build_weff(p, stat_dephasing=False)
        w1 = build_weff(p, stat_dephasing=True)
        extra = gamma_stat(p.theta, p.z, p.gamma)
        assert (w0.entries[0, 0] - w1.entries[0, 0]).real == pytest.approx(extra, abs=1e-14)
        assert np.allclose(w0.entries[0, 1], w1.entries[0, 1])

    def test_dissipative_stability_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = AnyonParams(theta=rng.uniform(0.0, 3.1), omega=1.0,
                            coupling_j=rng.uniform(-0.5, 0.5),
                            gamma=rng.uniform(0.01, 0.5),
                            beta=rng.uniform(0.2, 3.0),
                            xi=rng.uniform(-0.999, 0.999))
            w = build_weff(p)
            assert w.eigenvalues[0].real < 0.0
            assert w.eigenvalues[1].real < 0.0

    def test_closed_form_matches_brute_force_on_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = AnyonParams(theta=rng.uniform(0.0, math.pi), omega=1.0,
                            coupling_j=rng.uniform(-0.5, 0.5),
                            gamma=rng.uniform(0.0, 0.5),
                            beta=rng.uniform(0.2, 3.0),
                            xi=rng.uniform(-1.0, 1.0))
            w = build_weff(p)
            assert multiset_close(w.eigenvalues, brute_force_eigs(w.entries), 1e-12)

    @pytest.mark.parametrize("stat_dephasing", [False, True])
    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    def test_eigenvalues_stay_finite_while_the_entries_are(self, conjugation, stat_dephasing):
        # at gamma = 1e300, (A - D)^2 and BC pass the float range though every
        # entry and both eigenvalues are representable; a normal point in the
        # same array keeps the bits of its own call
        rng = np.random.default_rng(29)
        gamma = np.where(np.arange(200) % 2 == 0, 1e300, 0.1)
        pts = ParamArrays.over(AnyonParams(theta=0.0), theta=rng.uniform(0.0, math.pi, 200),
                               xi=rng.uniform(-1.0, 1.0, 200), gamma=gamma,
                               beta=np.exp(rng.uniform(math.log(0.1), math.log(20.0), 200)),
                               coupling_j=rng.uniform(0.05, 0.5, 200))
        entries = weff_entries(pts, "appendix", conjugation, stat_dephasing)
        lp, lm = weff_eigenvalues(*entries)
        normal = weff_eigenvalues(*(z[1::2] for z in entries))
        assert lp[1::2].tobytes() == normal[0].tobytes()
        assert lm[1::2].tobytes() == normal[1].tobytes()
        for k in range(0, 200, 2):
            w = np.array([[entries[0][k], entries[1][k]], [entries[2][k], entries[3][k]]])
            assert np.all(np.isfinite(w)) and np.isfinite(lp[k]) and np.isfinite(lm[k])
            assert multiset_close((lp[k], lm[k]), np.linalg.eigvals(w),
                                  1e-12 * np.max(np.abs(w)))
        # the scaled parts keep their squares: at theta = 0, xi = 0 (B = C = 0)
        # the +/-J split of the imaginary parts survives real parts of ~1e300
        lam = weff_eigenvalues(*weff_entries(AnyonParams(theta=0.0, gamma=1e300), "appendix",
                                             conjugation, stat_dephasing))
        assert sorted(np.imag(lam)) == pytest.approx([-1.2, -0.8], abs=1e-12)

    def test_lifetimes_are_inverse_decay(self):
        w = build_weff(AnyonParams(theta=2.0, xi=0.8))
        for lam, tau in zip(w.eigenvalues, w.lifetimes):
            assert tau == pytest.approx(1.0 / (-lam.real))


class TestEigenAnalysis:
    @pytest.mark.parametrize("theta, xi", [(1.0, 0.5), (2.3, -0.9), (0.4, 1.0)])
    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    def test_eigenvectors_stay_finite_while_the_entries_are(self, theta, xi, conjugation):
        # at gamma = 1e300 the squared norms of the unscaled candidates overflow;
        # the eigenvectors of the scaled matrix are the matrix's own
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = build_weff(AnyonParams(theta=theta, gamma=1e300, xi=xi), conjugation=conjugation)
        values, vectors = np.linalg.eig(w.entries)
        for lam, v in zip(w.eigenvalues, w.right_eigenvectors.T):
            ref = vectors[:, np.argmin(np.abs(values - lam))]
            phase = np.vdot(ref, v) / abs(np.vdot(ref, v))
            assert np.max(np.abs(v - phase * ref)) <= 1e-12
        assert math.isfinite(w.eigenvector_condition) and not w.near_defective
        assert w.eigenvector_condition == pytest.approx(np.linalg.cond(vectors), rel=1e-9)

    def test_diagonal_matrix_is_trivial(self):
        entries = np.diag([-1.2j - 0.1, -0.8j - 0.1])
        w = EffectiveMatrix(entries)
        assert multiset_close(w.eigenvalues, np.diag(entries), 1e-15)
        assert not w.near_defective
        assert w.eigenvector_condition == 1.0
        for k in range(2):  # each eigenvalue with the basis vector of its entry
            i = int(np.argmin(np.abs(np.diag(entries) - w.eigenvalues[k])))
            assert np.array_equal(w.right_eigenvectors[:, k], np.eye(2)[:, i])

    @pytest.mark.parametrize("convention, theta", [("appendix", math.pi),
                                                   ("maintext", math.pi / 2)])
    def test_scalar_matrix_is_not_defective(self, convention, theta):
        # at xi = 0 the +/- channel sums cancel exactly, and where the diagonal
        # frequencies cross W_eff is a multiple of the identity (under
        # "maintext" up to one ulp of its diagonal, below the gap's rounding)
        w = build_weff(AnyonParams(theta=theta, xi=0.0), convention)
        (a, b), (c, d) = w.entries
        assert b == 0 and c == 0 and w.gap == 0.0
        assert (a == d) == (convention == "appendix")
        want = np.eye(2) if a == d else np.eye(2)[:, ::-1 if abs(a - w.eigenvalues[0]) > abs(
            d - w.eigenvalues[0]) else 1]
        assert np.array_equal(w.right_eigenvectors, want)
        assert w.eigenvector_condition == 1.0
        assert not w.near_defective

    def test_eigenvectors_solve_the_system(self):
        w = build_weff(AnyonParams(theta=1.7, xi=0.7))
        for k in range(2):
            lam = w.eigenvalues[k]
            v = w.right_eigenvectors[:, k]
            res = np.linalg.norm(w.entries @ v - lam * v)
            assert res <= 1e-12

    def test_real_positive_product_case_vs_brute_force(self):
        w = build_weff(AnyonParams(theta=0.0, xi=1.0, beta=1.0, gamma=0.1, coupling_j=0.2))
        assert multiset_close(w.eigenvalues, brute_force_eigs(w.entries), 1e-13)

    def test_near_defective_flag_on_synthetic_defective_matrix(self):
        # [[a, 1], [eps, a]] has eigenvectors (1, +/-sqrt(eps)): condition ~ 1/sqrt(eps)
        entries = np.array([[-0.1 - 1j, 1.0], [1e-20, -0.1 - 1j]], dtype=complex)
        w = EffectiveMatrix(entries)
        assert w.near_defective

    @pytest.mark.parametrize("theta, xi", [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (2.0, 1.0),
                                           (3.0, 1.0), (math.pi, 0.3)])
    def test_labels_do_not_follow_round_off_in_the_discriminant(self, theta, xi):
        # eigenvalues depend on B, C only through B*C, so (B*C + d, 1) shifts
        # Im(B*C) by d and leaves everything else alone
        w = build_weff(AnyonParams(theta=theta, xi=xi))
        (a, b), (c, d) = w.entries
        for shift in (1e-18j, -1e-18j):
            entries = np.array([[a, b * c + shift], [1.0, d]], dtype=complex)
            nudged = dataclasses.replace(w, entries=entries)
            for got, want in zip(nudged.eigenvalues, w.eigenvalues):
                assert abs(got - want) <= 1e-12

    def test_eigenvector_condition_diverges_toward_the_exceptional_point(self):
        p = AnyonParams(theta=0.5, xi=1.0)
        ep = find_exceptional_point(p)
        at_ep = build_weff(p.with_(theta=ep.theta)).eigenvector_condition
        near = build_weff(p.with_(theta=ep.theta + 0.01)).eigenvector_condition
        far = build_weff(p.with_(theta=0.5))
        assert at_ep > 1e6 > near > far.eigenvector_condition
        assert not far.near_defective

    def test_dominant_eigenvector_character_swaps_with_correlation_sign(self):
        # the swap lives between the (1,1)/sqrt2 and (1,-1)/sqrt2 combinations:
        # the slowest mode's overlaps interchange under xi -> -xi
        p = AnyonParams(theta=2.8, coupling_j=0.2)
        sym = np.array([1.0, 1.0]) / math.sqrt(2.0)
        anti = np.array([1.0, -1.0]) / math.sqrt(2.0)
        for xi in (0.6, 1.0):
            wp = build_weff(p.with_(xi=xi))
            wm = build_weff(p.with_(xi=-xi))
            kp = int(np.argmax([lam.real for lam in wp.eigenvalues]))
            km = int(np.argmax([lam.real for lam in wm.eigenvalues]))
            vp = wp.right_eigenvectors[:, kp]
            vm = wm.right_eigenvectors[:, km]
            assert abs(np.vdot(sym, vp)) == pytest.approx(abs(np.vdot(anti, vm)), abs=1e-10)
            assert abs(np.vdot(anti, vp)) == pytest.approx(abs(np.vdot(sym, vm)), abs=1e-10)


def stacked_dissipative_rates(params, conjugation):
    """The channel sums as four stacked complex products per channel, each
    rounded by ``_mul``: the form ``dissipative_rates`` must equal bit for bit."""
    lam_plus, lam_minus, adj_plus, adj_minus = channel_coefficients(params, conjugation)
    total = 0.0 + 0.0j
    for k in range(4):  # channel by channel, in order; the four Gamma_ij stacked
        total = total + _mul(np.array([lam_plus[k], lam_minus[k], lam_plus[k], lam_minus[k]]),
                             np.array([adj_plus[k], adj_minus[k], adj_minus[k], adj_plus[k]]))
    return tuple(total)


# each field's range, and the values at its edges a draw favours
_FIELDS = {"theta": (0.0, math.pi, (0.0, math.pi)), "xi": (-1.0, 1.0, (1.0, -1.0, 0.0)),
           "gamma": (0.0, 2.0, (0.0,)), "beta": (1e-3, 20.0, (1e-3,)),
           "omega": (0.05, 5.0, (1.0,)), "coupling_j": (-1.0, 1.0, (0.0,))}


@st.composite
def param_arrays(draw):
    shape = draw(st.sampled_from(((), (1, 1), (2, 3), (4, 2))))
    size = math.prod(shape)
    arrays = {}
    for name, (lo, hi, edges) in _FIELDS.items():
        value = st.one_of(st.sampled_from(edges), st.floats(lo, hi))
        arrays[name] = np.reshape(draw(st.lists(value, min_size=size, max_size=size)), shape)
    return ParamArrays(**arrays)


class TestDissipativeRates:
    @settings(deadline=None, max_examples=200)
    @given(param_arrays(), st.sampled_from(("modulus", "analytic")))
    def test_equals_the_stacked_products_bit_for_bit(self, params, conjugation):
        got = dissipative_rates(params, conjugation)
        want = stacked_dissipative_rates(params, conjugation)
        for g, w in zip(got, want, strict=True):
            assert type(g) is type(w) and np.shape(g) == params.theta.shape
            assert np.array_equal(np.reshape(g, -1).view(np.uint64),
                                  np.reshape(w, -1).view(np.uint64))

    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    def test_one_point_equals_the_stacked_products(self, conjugation):
        p = AnyonParams(theta=math.pi, xi=-1.0, gamma=0.0)
        got = dissipative_rates(p, conjugation)
        assert [complex(g) for g in got] == [complex(w) for w in
                                             stacked_dissipative_rates(p, conjugation)]


@st.composite
def open_grids(draw):
    """ParamArrays fields as an open grid of 1-3 axes of 1-4 points: each field
    constant (size 1 everywhere) or along one axis."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    arrays = {}
    for name, (lo, hi, edges) in _FIELDS.items():
        axis = draw(st.sampled_from((None,) + tuple(range(len(sizes)))))
        shape = [size if k == axis else 1 for k, size in enumerate(sizes)]
        value = st.one_of(st.sampled_from(edges), st.floats(lo, hi))
        n = math.prod(shape)
        arrays[name] = np.reshape(draw(st.lists(value, min_size=n, max_size=n)), shape)
    return arrays


def _broadcast_out(arrays):
    return dict(zip(arrays, np.broadcast_arrays(*arrays.values())))


def _closed_forms(p, frequency, conjugation, stat_dephasing):
    entries = weff_entries(p, frequency, conjugation, stat_dephasing)
    return (thermal_occupation(p.theta, p.beta, p.omega), phase_average(p.theta, p.z),
            gamma_stat(p.theta, p.z, p.gamma), gamma_full_single(p),
            *normal_mode_frequencies(p, frequency), *channel_coefficients(p, conjugation),
            *dissipative_rates(p, conjugation), *entries, *weff_eigenvalues(*entries))


# values each field's rule refuses; beta 1e-12 puts beta * omega below the floor
_INVALID = {"theta": (-0.1, 4.0, math.nan), "xi": (1.5, -2.0, math.nan),
            "omega": (0.0, -1.0, math.inf, math.nan), "coupling_j": (math.inf, math.nan),
            "gamma": (-1.0, math.inf, math.nan), "beta": (0.0, -1.0, math.nan, 1e-12)}


class TestOpenGrid:
    # an open grid forms each quantity over the axes it depends on; every
    # element is the same elementwise expression as on the grid broadcast out
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(open_grids(), st.sampled_from(FREQUENCY_CONVENTIONS),
           st.sampled_from(CONJUGATION_CONVENTIONS), st.booleans())
    def test_open_grid_keeps_the_bits_of_the_broadcast_grid(self, arrays, frequency,
                                                            conjugation, stat_dephasing):
        conventions = frequency, conjugation, stat_dephasing
        p = ParamArrays(**arrays)
        got = _closed_forms(p, *conventions)
        want = _closed_forms(ParamArrays(**_broadcast_out(arrays)), *conventions)
        for g, w in zip(got, want, strict=True):
            g = np.ascontiguousarray(np.broadcast_to(g, np.shape(w)))
            assert np.array_equal(g.view(np.uint64), np.ascontiguousarray(w).view(np.uint64))
        assert np.shape(got[0]) == np.broadcast_shapes(p.theta.shape, p.beta.shape,
                                                       p.omega.shape)
        assert np.shape(got[4]) == np.broadcast_shapes(p.theta.shape, p.omega.shape,
                                                       p.coupling_j.shape)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(open_grids(), st.data())
    def test_invalid_point_raises_the_broadcast_grid_message(self, arrays, data):
        for _ in range(data.draw(st.integers(1, 2))):
            name = data.draw(st.sampled_from(sorted(_INVALID)))
            field = arrays[name].copy()
            field.flat[data.draw(st.integers(0, field.size - 1))] = \
                data.draw(st.sampled_from(_INVALID[name]))
            arrays[name] = field
        with pytest.raises(ParameterError) as full:
            ParamArrays(**_broadcast_out(arrays))
        with pytest.raises(ParameterError, match=f"^{re.escape(str(full.value))}$"):
            ParamArrays(**arrays)

    def test_fields_that_do_not_broadcast_are_refused_as_numpy_refuses_them(self):
        fields = dict(theta=np.zeros((2, 1)), omega=1.0, coupling_j=0.2, gamma=np.ones(3),
                      beta=1.0, xi=np.zeros(4))
        with pytest.raises(ValueError) as numpy_refusal:
            np.broadcast_arrays(*fields.values())
        with pytest.raises(ValueError, match=f"^{re.escape(str(numpy_refusal.value))}$"):
            ParamArrays(**fields)

    def test_fields_share_one_number_of_dimensions(self):
        p = ParamArrays.over(AnyonParams(theta=0.0), theta=np.zeros((3, 1)), xi=np.zeros(2))
        assert [np.shape(getattr(p, f.name)) for f in dataclasses.fields(p)] == \
            [(3, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 2)]


class TestExceptionalPoint:
    @pytest.mark.parametrize("bracket, zooms", [(None, 11), ((0.0, math.pi), 11),
                                                 ((0.0, 5.2e-12), 1)],
                             ids=["default", "zero-to-pi", "narrow"])
    def test_few_array_calls(self, monkeypatch, bracket, zooms):
        # the coarse scan, one call per zoom of two cells into 32 and the
        # refined angle
        calls = []

        def counted(*args):
            calls.append(np.shape(args[0].theta))
            return weff_entries(*args)

        monkeypatch.setattr(anyonosc.dimer, "weff_entries", counted)
        find_exceptional_point(AnyonParams(theta=0.0, xi=1.0), bracket)
        assert len(calls) <= 13
        assert calls == [(512,)] + [(33,)] * zooms + [()]

    def test_no_ep_without_correlation(self):
        ep = find_exceptional_point(AnyonParams(theta=0.0, xi=0.0))
        assert not ep.found
        assert ep.gap > 1e-4

    def test_ep_location_at_full_correlation(self):
        ep = find_exceptional_point(AnyonParams(theta=0.0, xi=1.0, beta=1.0,
                                                gamma=0.1, coupling_j=0.2))
        assert ep.found
        assert 2.0 < ep.theta < math.pi
        assert ep.gap < 1e-6 * 0.1

    @pytest.mark.parametrize("bracket, convention", [((3.0, math.pi), "appendix"),
                                                     (None, "maintext")],
                             ids=["bracket-at-pi", "maintext"])
    def test_scalar_degeneracy_is_no_ep(self, bracket, convention):
        # the gap closes where W_eff is a multiple of the identity (B = C = 0)
        ep = find_exceptional_point(AnyonParams(theta=0.0, xi=0.0), bracket, convention)
        assert ep.gap < ep.threshold
        assert not ep.found

    def test_no_ep_in_closed_system(self):
        ep = find_exceptional_point(AnyonParams(theta=0.0, xi=1.0, gamma=0.0))
        assert not ep.found

    def test_ep_consistent_with_real_discriminant_root(self):
        # independent check: under the modulus convention the squared gap is a
        # real function of theta; brentq on it must agree with the scanner
        from scipy.optimize import brentq
        p = AnyonParams(theta=0.0, xi=1.0)

        def disc(theta):
            w = build_weff(p.with_(theta=theta))
            (a, b), (c, d) = w.entries
            return ((a - d) ** 2 + 4 * b * c).real

        root = brentq(disc, 2.0, 2.9, xtol=1e-14)
        ep = find_exceptional_point(p)
        assert ep.theta == pytest.approx(root, abs=1e-9)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            find_exceptional_point(AnyonParams(theta=0.0), theta_bracket=(2.0, 1.0))


def match_pair(previous, current):
    """The label match_branches gives ``current`` right after ``previous``."""
    first, second = match_branches([previous[0], current[0]], [previous[1], current[1]])
    return first[1], second[1]


class TestBranchMatching:
    def test_keeps_identity_when_closer(self):
        prev = (-0.1 - 1.0j, -0.2 - 0.8j)
        cur = (-0.11 - 1.01j, -0.19 - 0.79j)
        assert match_pair(prev, cur) == cur

    def test_swaps_when_swapped_is_closer(self):
        prev = (-0.1 - 1.0j, -0.2 - 0.8j)
        cur = (-0.19 - 0.79j, -0.11 - 1.01j)
        assert match_pair(prev, cur) == (cur[1], cur[0])

    @settings(deadline=None, max_examples=200)
    @given(parts=st.lists(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.0)),
                          min_size=8, max_size=48).filter(lambda v: len(v) % 4 == 0),
           flips=st.lists(st.booleans(), min_size=48, max_size=48))
    def test_labels_unchanged_under_signed_zero_flips(self, parts, flips):
        # -0.0 and 0.0 are one value: flipping the sign of any zero part of
        # either eigenvalue moves no point onto the other branch
        raw = np.array(parts).reshape(2, -1, 2)  # (pair, point, re/im)
        flip = np.array(flips[:raw.size]).reshape(raw.shape)
        other = np.where(flip & (raw == 0.0), -raw, raw)

        def pairs(values):
            z = np.empty(values.shape[:-1], dtype=complex)
            z.real, z.imag = values[..., 0], values[..., 1]
            return z

        want = match_branches(*pairs(raw))
        got = match_branches(*pairs(other))
        for w, g in zip(want, got):
            assert np.array_equal(w, g)  # == ignores the sign of a zero


def _endpoint_weff(p, fermion, frequency, stat_dephasing):
    """W_eff at theta = 0 (boson) or pi (fermion) from the closed forms: the
    channel sums are g (1, xi) with g = gamma (2n + 1)/2, and the fermion
    off-diagonals carry the phase e^{-i pi/2} = -i of the minus mode."""
    x = math.exp(p.beta * p.omega)
    n = 1.0 / (x + 1.0) if fermion else 1.0 / (x - 1.0)
    g = 0.5 * p.gamma * (2.0 * n + 1.0)
    split = 0.0 if fermion and frequency == "appendix" else -p.coupling_j if fermion \
        else p.coupling_j
    extra = p.gamma * p.z / (1.0 + p.z) if fermion and stat_dephasing else 0.0
    off = 1j * g * p.xi if fermion else g * p.xi
    return np.array([[-1j * (p.omega + split) - g - extra, -off],
                     [-np.conj(off) if fermion else -off, -1j * (p.omega - split) - g - extra]])


class TestBosonFermionEndpoints:
    @settings(deadline=None, max_examples=100)
    @given(beta=st.floats(0.05, 20.0), omega=st.floats(0.1, 10.0), gamma=st.floats(0.0, 2.0),
           coupling=st.floats(0.0, 1.0), xi=st.floats(-1.0, 1.0),
           frequency=st.sampled_from(("appendix", "maintext")),
           conjugation=st.sampled_from(("modulus", "analytic")), stat=st.booleans())
    def test_rates_and_weff_at_theta_zero_and_pi(self, beta, omega, gamma, coupling, xi,
                                                 frequency, conjugation, stat):
        for theta, fermion in ((0.0, False), (math.pi, True)):
            p = AnyonParams(theta=theta, beta=beta, omega=omega, gamma=gamma,
                            coupling_j=coupling, xi=xi)
            x, z = math.exp(beta * omega), p.z
            nth = complex(thermal_occupation(theta, beta, omega))
            rate = complex(gamma_full_single(p))
            stat_rate = float(gamma_stat(theta, z, gamma))
            if fermion:  # e^{i pi} is -1 to within one rounding of sin(pi)
                assert nth == pytest.approx(1.0 / (x + 1.0), rel=1e-15, abs=0.0)
                # on the scale of gamma: 1 - Re<e^{i theta N}> cancels for small z
                assert abs(stat_rate - gamma * z / (1.0 + z)) <= 1e-15 * max(gamma, 1e-300)
                fermi = 1.0 / (x + 1.0)
                want = 0.5 * gamma * (2.0 * fermi + 1.0 + 1.0 - (1.0 - z) / (1.0 + z))
                assert rate == pytest.approx(want, rel=1e-14, abs=1e-300)
            else:  # the boson point is exact
                assert nth == 1.0 / (x - 1.0)
                assert stat_rate == 0.0
                assert rate == 0.5 * gamma * (2.0 / (x - 1.0) + 1.0)
            got = np.array(weff_entries(p, frequency, conjugation, stat)).reshape(2, 2)
            want = _endpoint_weff(p, fermion, frequency, stat)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, (theta, got, want)
            # the one-point eigen-analysis sees the same matrix; near an
            # exceptional point the eigenvalues move like the root of the entries'
            (a, b), (c, d) = want
            w = build_weff(p, frequency, conjugation, stat)
            tol = 1e-12 * scale + math.sqrt(1e-14 * (abs(a - d) ** 2 + 4.0 * abs(b * c)))
            assert multiset_close(w.eigenvalues, np.linalg.eigvals(want), tol)
