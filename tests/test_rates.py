import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anyonosc import (AnyonParams, ParameterError, deformed_commutator_eigenvalue,
                      gamma_full_single, gamma_stat, phase_average,
                      thermal_occupation)
from anyonosc.params import _exp
from anyonosc.rates import phase_average_series, q_bracket


def commutator_oracle(n, theta):
    # independent route: 1 + (e^{i theta} - 1) [n]_q
    return 1.0 + (cmath.exp(1j * theta) - 1.0) * q_bracket(n, theta)


class TestDeformedCommutator:
    def test_vacuum_is_unity_for_any_angle(self):
        for theta in np.linspace(0.0, math.pi, 17):
            assert deformed_commutator_eigenvalue(0, theta) == 1.0

    def test_fermion_point_single_quantum(self):
        # Phi = 1 - 2N at theta = pi gives -1 on n = 1
        assert deformed_commutator_eigenvalue(1, math.pi) == pytest.approx(-1.0)

    def test_matches_deformed_bracket_oracle(self):
        for theta in np.linspace(0.0, math.pi, 23):
            for n in range(0, 9):
                got = deformed_commutator_eigenvalue(n, theta)
                want = commutator_oracle(n, theta)
                assert abs(got - want) < 1e-12

    def test_two_quanta_quarter_angle(self):
        assert deformed_commutator_eigenvalue(2, math.pi / 2) == pytest.approx(-1.0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            deformed_commutator_eigenvalue(-1, 0.3)


class TestThermalOccupation:
    def test_boson_value(self):
        assert thermal_occupation(0.0, 1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-14)

    def test_fermion_value(self):
        assert thermal_occupation(math.pi, 1.0, 1.0) == pytest.approx(1.0 / (math.e + 1.0), abs=1e-14)

    def test_empty_bath_limit(self):
        assert abs(thermal_occupation(math.pi / 2, 50.0, 1.0)) < 1e-20

    def test_real_at_boson_and_fermion_points(self):
        for bw in (0.5, 1.0, 2.0):
            assert abs(thermal_occupation(0.0, bw, 1.0).imag) <= 1e-14
            assert abs(thermal_occupation(math.pi, bw, 1.0).imag) <= 1e-14

    def test_pole_floor_rejected(self):
        with pytest.raises(ParameterError):
            thermal_occupation(0.0, 1e-12, 1.0)


class TestPhaseAverage:
    def test_boson_angle_is_unity(self):
        for z in (0.0, 0.3, 0.9):
            assert phase_average(0.0, z) == pytest.approx(1.0)

    def test_zero_occupation_is_unity(self):
        for theta in np.linspace(0.0, math.pi, 9):
            assert phase_average(theta, 0.0) == pytest.approx(1.0)

    def test_fermion_value_against_series(self):
        z = 1.0 / math.e
        want = phase_average_series(math.pi, z)
        got = phase_average(math.pi, z)
        assert abs(got - want) < 1e-12
        assert got.real == pytest.approx((1 - z) / (1 + z), abs=1e-12)

    def test_series_oracle_grid(self):
        # closed form vs truncated series on a 50x50 grid
        thetas = np.linspace(0.0, math.pi, 50)
        zs = np.linspace(0.0, 0.9, 50)
        worst = 0.0
        for th in thetas:
            for z in zs:
                err = abs(phase_average(th, z) - phase_average_series(th, z))
                worst = max(worst, err)
        assert worst <= 1e-10

    def test_magnitude_bounded_by_one(self):
        for th in np.linspace(0.0, math.pi, 40):
            for z in np.linspace(0.0, 0.99, 40):
                assert abs(phase_average(th, z)) <= 1.0 + 1e-12

    def test_real_at_limits(self):
        for z in np.linspace(0.0, 0.95, 20):
            assert abs(phase_average(0.0, z).imag) <= 1e-14
            assert abs(phase_average(math.pi, z).imag) <= 1e-14


class TestGammaStat:
    def test_vanishes_in_boson_limit(self):
        for z in np.linspace(0.0, 0.95, 20):
            assert gamma_stat(0.0, z, 0.1) == 0.0

    def test_fermion_closed_form(self):
        for z in np.linspace(0.01, 0.95, 20):
            assert gamma_stat(math.pi, z, 0.1) == pytest.approx(0.1 * z / (1 + z), abs=1e-12)

    @given(beta_omega=st.floats(1e-9, 700.0), gamma=st.floats(1e-3, 1e3))
    @example(beta_omega=20.0, gamma=0.1)
    @example(beta_omega=30.0, gamma=0.1)
    @example(beta_omega=40.0, gamma=0.1)  # 1 - Re<e^{i theta N}> rounds to 0 here
    def test_fermion_limit_keeps_relative_accuracy(self, beta_omega, gamma):
        z = math.exp(-beta_omega)
        want = gamma * z / (1.0 + z)
        assert abs(gamma_stat(math.pi, z, gamma) - want) <= 8 * np.finfo(float).eps * want

    def test_half_angle_against_series_oracle(self):
        z, g = 1.0 / math.e, 0.1
        re_avg = phase_average_series(math.pi / 2, z).real
        want = 0.5 * g * (1.0 - re_avg)
        assert gamma_stat(math.pi / 2, z, g) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.0221615, abs=1e-6)

    def test_monotone_in_theta(self):
        thetas = np.linspace(0.0, math.pi, 400)
        for z in (0.1, 0.3678794411714423, 0.7, 0.9):
            vals = [gamma_stat(t, z, 0.1) for t in thetas]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestGammaFullSingle:
    def test_boson_limit(self):
        p = AnyonParams(theta=0.0, beta=1.0, gamma=0.1)
        want = 0.05 * (2.0 / (math.e - 1.0) + 1.0)
        rate = gamma_full_single(p)
        assert rate.real == pytest.approx(want, abs=1e-12)
        assert abs(rate.imag) <= 1e-14

    def test_fermion_limit_decomposition(self):
        p = AnyonParams(theta=math.pi, beta=1.0, gamma=0.1)
        n_f = 1.0 / (math.e + 1.0)
        want = 0.05 * (2 * n_f + 1) + 0.1 * n_f
        assert gamma_full_single(p).real == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.1037882, abs=1e-6)

    def test_no_bath_coupling(self):
        p = AnyonParams(theta=0.7, gamma=0.0)
        assert gamma_full_single(p) == 0.0

    def test_complex_at_intermediate_angle(self):
        p = AnyonParams(theta=1.2)
        rate = gamma_full_single(p)
        assert rate.imag != 0.0
        assert np.ndim(rate) == 0


class TestAnyonParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AnyonParams(theta=-0.1)
        with pytest.raises(ParameterError):
            AnyonParams(theta=0.5, xi=1.5)
        with pytest.raises(ParameterError):
            AnyonParams(theta=0.5, omega=0.0)
        with pytest.raises(ParameterError):
            AnyonParams(theta=0.5, gamma=-1.0)
        with pytest.raises(ParameterError):
            AnyonParams(theta=0.5, beta=-1.0)

    def test_z_in_open_interval(self):
        p = AnyonParams(theta=0.5, beta=2.0)
        assert 0.0 < p.z < 1.0

    def test_with_revalidates(self):
        p = AnyonParams(theta=0.5)
        with pytest.raises(ParameterError):
            p.with_(theta=4.0)


class TestExp:
    # params._exp evaluates math.exp once per distinct value; a one-element
    # array (beta * omega where neither is a grid axis) takes no sort
    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, 2.5, -1e-9, 700.0, -745.0])
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 4)])
    def test_broadcast_constant_is_the_scalar_exp(self, value, shape):
        got = np.asarray(_exp(np.full(shape, value)))
        assert got.shape == shape
        want = np.float64(math.exp(value)).view(np.uint64)
        assert (got.view(np.uint64) == want).all()

    def test_mixed_signed_zeros_and_distinct_values(self):
        x = np.array([0.0, -0.0, 0.0, -0.0])
        assert (_exp(x).view(np.uint64) == np.float64(1.0).view(np.uint64)).all()
        x = np.array([-0.5, 1.25, -0.5, 3.0, 1.25])
        want = np.array([math.exp(v) for v in x.tolist()])
        assert (_exp(x).view(np.uint64) == want.view(np.uint64)).all()
        assert _exp(np.empty((0, 3))).shape == (0, 3)

    def test_overflow_is_inf_as_at_infinity(self):
        # math.exp raises OverflowError from about 709.78 on; e^{beta omega} is inf there
        x = np.array([709.0, 710.0, 1e300, math.inf, 709.0])
        want = np.array([math.exp(709.0), math.inf, math.inf, math.inf, math.exp(709.0)])
        assert (_exp(x).view(np.uint64) == want.view(np.uint64)).all()
        assert _exp(np.full((2, 3), 710.0)).tolist() == [[math.inf] * 3] * 2
        assert _exp(1e300) == math.inf

    def test_locator_sorts_nothing(self, monkeypatch):
        # at a default ep-locate point every W_eff call holds one beta * omega
        from anyonosc.dimer import find_exceptional_point
        from anyonosc.sweeps import RunConfig

        calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        find_exceptional_point(RunConfig().params)
        assert calls == []
