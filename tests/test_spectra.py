import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anyonosc.fock
import anyonosc.spectra
from anyonosc import (AnyonParams, FockSystem, GridSpec,
                      build_dipole, build_liouvillian, build_weff, diagonal_slice,
                      find_exceptional_point, lineshape_metrics,
                      rephasing_response)
from anyonosc.fock import expm, resolvent_apply
from anyonosc.spectra import (PATHWAY_QUANTA, SpectrumGrid, _apply, _pathway_blocks,
                              _pathway_states, _resolvents, rephasing_response_quadrature,
                              response_point)
from anyonosc.sweeps import GENERATORS, Conventions, RunConfig, run_fig3, run_spectrum


def coherence_order(system):
    """Delta q = ket quanta - bra quanta of every row-major vectorized state."""
    return np.subtract.outer(system.total_quanta, system.total_quanta).ravel()


def small_grid(theta, xi, n=48, **kw):
    p = AnyonParams(theta=theta, xi=xi)
    return rephasing_response(p, grid=GridSpec(count=n), **kw), p


def interval_states(system):
    """R1/R2/R3 of the library's labels as row-major pair states of the whole
    d^2-state space of ``system``."""
    kets, bras, intervals = _pathway_states(tuple(system.total_quanta.tolist()))
    states = kets * system.dim + bras
    return [states[r] for r in intervals]


def system_pathway(system, dip, p, t2, axis, jump_basis, conjugation):
    """The rephasing grid on a caller's system and dipole of any cutoff >= 2,
    from the library's block helper in the rank-2 order: the R1 solves x,
    P = mu_last e^{L t2} mu_mid, the R3 left vectors y contracted once into
    w = (i)^3 P^T y, and the grid sum_k x[i, k] w[j, k]."""
    (l_first, l_mid, l_last), (mu_mid, mu_last), v0, tr_mu = _pathway_blocks(
        system, dip, p, jump_basis, conjugation)
    x = _resolvents(l_first, 1j * axis, -v0)
    prop = expm(l_mid * t2) @ mu_mid if t2 > 0.0 else mu_mid
    y = _resolvents(l_last.T, -1j * axis, -tr_mu)
    w = _apply((mu_last @ prop).T, y) * (1j) ** 3
    return np.einsum("ik,jk->ij", x, w)


class TestDipole:
    def test_matches_string_dressed_formula(self):
        # independent route: explicit phase string on the bare mode-2 factors
        from anyonosc import anyon_ladder_matrix
        for theta in np.linspace(0.0, math.pi, 9):
            system = FockSystem(cutoff=2, theta=theta, modes=2)
            dip = build_dipole(system)
            d = system.cutoff + 1
            eye = np.eye(d)
            string = np.kron(system.phase_string, eye)
            a = anyon_ladder_matrix(2, theta)
            a1 = system.lowering[0]
            want = (a1.conj().T + a1
                    + np.conj(string) @ np.kron(eye, a.conj().T)
                    + string @ np.kron(eye, a))
            assert np.linalg.norm(dip - want) <= 1e-13

    def test_fermion_string_is_parity_on_mode_two_terms(self):
        system = FockSystem(cutoff=2, theta=math.pi, modes=2)
        dip = build_dipole(system)
        # <11|mu|01> goes through n1 = 1: parity string flips the sign
        d = system.cutoff + 1
        i11 = 1 * d + 1
        i01 = 0 * d + 1
        i10 = 1 * d + 0
        assert dip[i11, i10] == pytest.approx(-1.0)  # raise mode 2 past n1 = 1
        assert dip[i11, i01] == pytest.approx(+1.0)  # raise mode 1: no string

    def test_boson_point_is_plain_site_sum(self):
        system = FockSystem(cutoff=2, theta=0.0, modes=2)
        dip = build_dipole(system)
        a1, a2 = system.lowering
        plain = a1 + a1.conj().T + a2 + a2.conj().T
        assert np.array_equal(dip, plain)

    def test_vacuum_two_pathways(self):
        for theta in (0.0, 1.1, 2.4, math.pi):
            system = FockSystem(cutoff=2, theta=theta, modes=2)
            dip = build_dipole(system)
            vac = np.zeros(system.dim, complex)
            vac[0] = 1.0
            val = vac.conj() @ (dip @ (dip @ vac))
            assert val == pytest.approx(2.0, abs=1e-12)

    def test_connects_neighboring_manifolds(self):
        system = FockSystem(cutoff=2, theta=0.7, modes=2)
        dip = build_dipole(system)
        q = system.total_quanta
        for i in range(system.dim):
            for j in range(system.dim):
                if abs(q[i] - q[j]) != 1:
                    assert abs(dip[i, j]) <= 1e-15

    def test_single_mode_rejected(self):
        with pytest.raises(ValueError):
            build_dipole(FockSystem(cutoff=2, theta=0.0, modes=1))


class TestRephasingResponse:
    def test_cutoff_one_rejected(self):
        # the library builds its own cutoff-2 system; a run configuration
        # still carries --cutoff, and one without two-quanta states is refused
        config = RunConfig(cutoff=1, grid=GridSpec(count=4))
        with pytest.raises(ValueError, match="cutoff >= 2"):
            run_spectrum(config)

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            rephasing_response(AnyonParams(theta=0.0, gamma=0.0))

    def test_overdamped_washout(self):
        g1, _ = small_grid(0.0, 0.0, n=32)
        p = AnyonParams(theta=0.0, xi=0.0, gamma=10.0)
        g2 = rephasing_response(p, grid=GridSpec(count=32))
        assert np.max(np.abs(g2.values)) < 0.01 * np.max(np.abs(g1.values))

    def test_grid_values_match_single_point_evaluations(self):
        g, p = small_grid(0.9, 0.5, n=16)
        rng = np.random.default_rng(2)
        for _ in range(5):
            i, j = rng.integers(0, 16, size=2)
            v = response_point(p, float(g.axis[i]), float(g.axis[j]))
            assert v == g.values[i, j]

    def test_single_point_at_nearly_equal_frequencies(self):
        # two frequencies 1e-7 apart are two cells, not one
        p = AnyonParams(theta=0.9, xi=0.5)
        lo, hi = 0.1, 0.1 + 1e-7
        g = rephasing_response(p, grid=GridSpec(count=2, lo=lo, hi=hi))
        assert response_point(p, lo, hi) == g.values[0, 1]
        assert response_point(p, hi, lo) == g.values[1, 0]
        assert response_point(p, lo, lo) == g.values[0, 0]
        assert g.values[0, 1] != g.values[0, 0]

    @settings(deadline=None, max_examples=20)
    @given(theta=st.floats(0.0, math.pi), xi=st.floats(-1.0, 1.0),
           log_beta=st.floats(math.log(0.05), math.log(20.0)),
           t2=st.one_of(st.just(0.0), st.floats(0.0, 20.0, exclude_min=True)),
           jump_basis=st.sampled_from(("site", "deformed")),
           conjugation=st.sampled_from(("modulus", "analytic")),
           count=st.integers(2, 40))
    def test_grid_point_diagonal_and_slice_are_one_product(self, theta, xi, log_beta, t2,
                                                           jump_basis, conjugation, count):
        # every cell, its one-point call, the diagonal read from the factors
        # and fig3's slice row agree bit for bit
        p = AnyonParams(theta=theta, xi=xi, beta=math.exp(log_beta))
        kw = {"t2": t2, "jump_basis": jump_basis, "conjugation": conjugation}
        grid = rephasing_response(p, grid=GridSpec(count=count), **kw)
        _, diagonal = diagonal_slice(grid)  # from the factors, cells formed or not
        assert diagonal.tobytes() == np.diagonal(grid.values).tobytes()
        assert diagonal_slice(grid)[1].tobytes() == diagonal.tobytes()
        # the pathway's blocks are a function of the parameter point alone:
        # gathered once, they leave every bit and speed up the point calls
        system = FockSystem(cutoff=PATHWAY_QUANTA, theta=theta)
        blocks = _pathway_blocks(system, build_dipole(system, conjugation), p, jump_basis,
                                 conjugation)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anyonosc.spectra, "_pathway_blocks", lambda *args: blocks)
            points = [[response_point(p, a, b, **kw) for b in grid.axis] for a in grid.axis]
        assert np.array(points).tobytes() == grid.values.tobytes()

        config = RunConfig(params=p, grid=GridSpec(count=count), t2=t2, theta_list=(theta,),
                           xi_list=(xi,), conventions=Conventions(conjugation=conjugation,
                                                                  jump_basis=jump_basis))
        fig3 = run_fig3(config)
        panel = np.diagonal(fig3.grids[0][2].values)
        assert fig3.column("re").tobytes() == panel.real.tobytes()
        assert fig3.column("im").tobytes() == panel.imag.tobytes()

    # endpoints, then span and step: -1e308:1e308 overflows hi - lo, and the
    # last two ranges round neighbouring detunings to one float
    @pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0),
                                        (-1e308, 1e308), (0.0, 5e-324), (1.0, 1.0 + 2e-16)])
    def test_grid_range_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(count=4, lo=lo, hi=hi).axis()

    @pytest.mark.parametrize("count, lo", [(4096, 0.0), (3, 1e300), (2, 1e308)])
    def test_grid_up_to_the_float_maximum_is_silent(self, count, lo):
        # linspace's last product may round past the maximum before hi
        # replaces it; the grid is accepted and its axis is finite
        hi = sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            axis = GridSpec(count=count, lo=lo, hi=hi).axis()
        assert axis[0] == lo and axis[-1] == hi
        assert np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0.0)

    @settings(deadline=None, max_examples=300)
    @given(count=st.integers(2, 4096),
           ends=st.lists(st.one_of(
               st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, sys.float_info.max,
                                -sys.float_info.max)),
               st.floats(allow_nan=False, allow_infinity=False)), min_size=2, max_size=2))
    def test_any_finite_grid_is_refused_or_strictly_increasing(self, count, ends):
        lo, hi = ends
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                axis = GridSpec(count=count, lo=lo, hi=hi).axis()
            except ValueError:
                return
        assert axis.size == count and axis[0] == lo and axis[-1] == hi
        assert np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega_tau", "omega_t"])
    def test_single_point_rejects_non_finite_frequencies(self, name, bad):
        p = AnyonParams(theta=0.9, xi=0.5)
        freqs = {"omega_tau": 0.1, "omega_t": 0.2, name: bad}
        with pytest.raises(ValueError, match=name):
            response_point(p, freqs["omega_tau"], freqs["omega_t"])

    def test_braided_equals_unbraided_at_boson_point(self):
        system = FockSystem(cutoff=2, theta=0.0, modes=2)
        dip = build_dipole(system)
        a1, a2 = system.lowering
        plain = a1 + a1.conj().T + a2 + a2.conj().T
        assert np.array_equal(dip, plain)
        p = AnyonParams(theta=0.0, xi=0.0)
        grid = GridSpec(count=16)
        got = rephasing_response(p, grid=grid).values
        want = system_pathway(system, plain, p, 0.0, grid.axis(), "site", "modulus")
        assert got.tobytes() == want.tobytes()

    def test_cutoff_two_vs_three_agreement(self):
        # the cutoff lives on the reference side: the dense per-frequency
        # pathway on the whole L of a cutoff-2 and a cutoff-3 system
        p = AnyonParams(theta=0.9, xi=0.5)
        grid = GridSpec(count=24)
        got = rephasing_response(p, grid=grid).values
        for cutoff in (2, 3):
            system = FockSystem(cutoff=cutoff, theta=0.9, modes=2)
            want = dense_reference(system, build_dipole(system), p, grid.axis(), 0.0, "site",
                                   "modulus")
            assert np.max(np.abs(got - want)) <= 1e-3 * np.max(np.abs(want))

    def test_formed_cells_are_read_only(self):
        # the diagonal and fig3's slice read the factors, so a write into the
        # cells would change the grid and not its slice: the cells refuse it
        g, _ = small_grid(0.4, 0.3, n=8)
        with pytest.raises(ValueError, match="read-only"):
            g.values[1, 1] = 0.0
        assert g.diagonal().tobytes() == np.diagonal(g.values).tobytes()

    def test_metadata_holds_what_the_config_cannot_show(self):
        # parameters, cutoff, t2, conventions and the grid are the run
        # config's echo; the grid keeps only the facts of its own making
        g, _ = small_grid(0.4, 0.3, n=8)
        assert set(g.metadata) == {"rho_eq", "frequency", "axes", "first_interval_axis",
                                   "prefactor"}
        assert (g.metadata["rho_eq"], g.metadata["frequency"]) == ("vacuum", "appendix")

    def test_waiting_time_damps_the_signal(self):
        p = AnyonParams(theta=0.5, xi=0.4)
        g0 = rephasing_response(p, t2=0.0, grid=GridSpec(count=12))
        g1 = rephasing_response(p, t2=30.0, grid=GridSpec(count=12))
        assert np.max(np.abs(g1.values)) < np.max(np.abs(g0.values))

    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    def test_odd_grid_is_finite(self, conjugation):
        # an odd count puts detuning 0 on the axis, where the population
        # block of -L is singular; the pathway never solves in that block
        g, _ = small_grid(0.7, 0.5, n=17, conjugation=conjugation)
        assert g.axis[8] == 0.0
        assert np.all(np.isfinite(g.values))

    @pytest.mark.parametrize("t2", [-5.0, float("nan"), float("inf")])
    def test_invalid_waiting_time_rejected(self, t2):
        with pytest.raises(ValueError, match="t2"):
            rephasing_response(AnyonParams(theta=0.3), t2=t2, grid=GridSpec(count=4))

    def test_resolvent_vs_quadrature_probe(self):
        p = AnyonParams(theta=0.6, xi=0.5)
        system = FockSystem(cutoff=2, theta=0.6, modes=2)
        dip = build_dipole(system)
        axis = np.linspace(-0.4, 0.4, 8)
        quad = rephasing_response_quadrature(system, dip, p, axis)
        direct = np.empty_like(quad)
        for i, wt in enumerate(axis):
            for j, wv in enumerate(axis):
                direct[i, j] = response_point(p, float(wt), float(wv))
        rel = np.max(np.abs(direct - quad)) / np.max(np.abs(direct))
        assert rel <= 1e-3


def dipole_superoperators(mu):
    """Ket-side mu (x) 1 and bra-side 1 (x) mu^T on row-major vectorized states,
    built with np.kron independently of the library's two-quanta block."""
    eye = np.eye(mu.shape[0])
    return np.kron(mu, eye), np.kron(eye, mu.T)


def dense_reference(system, dip, p, axis, t2, jump_basis, conjugation):
    """The pathway composed from fock.resolvent_apply, one dense LU per
    frequency and cell, each interval on its closure in the whole L
    (``pathway_closures``, found here from the dense pattern, with no library
    block code). L[rest, R] == 0 makes the restriction exact, and the
    coherences the pathway never reaches (undamped at xi = +/-1) cannot make
    the reference singular or inaccurate."""
    liouv = build_liouvillian(system, p, jump_basis, conjugation, rotating=True)
    rho0 = system.vacuum_projector()
    first, mid, last = pathway_closures(dip, liouv, rho0)
    mu_left, mu_right = dipole_superoperators(dip)
    v0 = (mu_right @ rho0.ravel())[first]
    tr_mu = (np.eye(system.dim).ravel() @ mu_right)[last]
    l_first, l_mid, l_last = (liouv[np.ix_(r, r)] for r in (first, mid, last))
    prop = sla.expm(l_mid * t2)
    mu_mid, mu_last = mu_left[np.ix_(mid, first)], mu_left[np.ix_(last, mid)]
    out = np.empty((axis.size, axis.size), dtype=complex)
    for i, wtau in enumerate(axis):
        z = mu_last @ (prop @ (mu_mid @ resolvent_apply(l_first, -wtau, -1, v0)))
        for j, wt in enumerate(axis):
            out[i, j] = tr_mu @ resolvent_apply(l_last, -wt, +1, z)
    return out * (1j) ** 3


class TestBlockSolveEquivalence:
    CASES = [(cutoff, conj, basis, t2) for cutoff in (2, 3)
             for conj in ("modulus", "analytic") for basis in ("site", "deformed")
             for t2 in (0.0, 7.5)]

    @pytest.mark.parametrize("cutoff,conjugation,jump_basis,t2", CASES)
    def test_matches_dense_resolvent_reference(self, cutoff, conjugation, jump_basis, t2):
        p = AnyonParams(theta=0.9, xi=0.5, beta=0.5)
        system = FockSystem(cutoff=cutoff, theta=p.theta, modes=2)
        dip = build_dipole(system, conjugation)
        grid = GridSpec(count=8, lo=-0.4, hi=0.4)
        got = rephasing_response(p, t2=t2, grid=grid, jump_basis=jump_basis,
                                 conjugation=conjugation).values
        want = dense_reference(system, dip, p, grid.axis(), t2, jump_basis, conjugation)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("t2", [0.0, 5.0])
    @pytest.mark.parametrize("count", [15, 16])
    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    @pytest.mark.parametrize("jump_basis", ["site", "deformed"])
    @pytest.mark.parametrize("xi", [-1.0, 0.0, 1.0])
    def test_fermion_point_matches_dense_reference(self, xi, jump_basis, conjugation, count,
                                                   t2):
        # at theta = pi R3 holds four states the pathway never fills; every
        # grid is finite and meets the dense reference, except where an
        # undamped coherence at xi = +/-1 sits within ~1e-17 of resonance:
        # the detuning-0 row and column of an odd grid are rounding noise
        # there in both the library and the reference
        p = AnyonParams(theta=math.pi, xi=xi)
        system = FockSystem(cutoff=2, theta=math.pi, modes=2)
        grid = GridSpec(count=count)
        got = rephasing_response(p, t2=t2, grid=grid, jump_basis=jump_basis,
                                 conjugation=conjugation).values
        assert np.all(np.isfinite(got))
        want = dense_reference(system, build_dipole(system, conjugation), p, grid.axis(), t2,
                               jump_basis, conjugation)
        keep = np.ones(got.shape, dtype=bool)
        if abs(xi) == 1.0:
            resonant = grid.axis() == 0.0
            assert np.count_nonzero(resonant) == count % 2
            keep[resonant, :] = keep[:, resonant] = False
        assert np.max(np.abs(got - want)[keep]) <= 1e-12 * np.max(np.abs(want[keep]))

    @pytest.mark.parametrize("jump_basis", ["site", "deformed"])
    def test_liouvillian_is_block_diagonal_in_coherence_order(self, jump_basis):
        system = FockSystem(cutoff=3, theta=1.3, modes=2)
        liouv = build_liouvillian(system, AnyonParams(theta=1.3, xi=0.4), jump_basis,
                                  "analytic", rotating=True)
        order = coherence_order(system)
        assert np.all(liouv[order[:, None] != order[None, :]] == 0)
        assert np.count_nonzero(np.abs(order) == 1) == 80  # two 40-state blocks


def weff_draws(count=40):
    """Fixed parameter points with theta in [0.3, pi - 0.3]: away from theta = 0,
    where maintext equals appendix and the statistical dephasing vanishes."""
    rng = np.random.default_rng(26)
    return [AnyonParams(theta=float(rng.uniform(0.3, math.pi - 0.3)),
                        xi=float(rng.uniform(-1.0, 1.0)),
                        coupling_j=float(rng.uniform(0.05, 0.5)),
                        gamma=float(rng.uniform(0.01, 0.5)),
                        beta=float(np.exp(rng.uniform(math.log(0.1), math.log(20.0)))))
            for _ in range(count)]


DEFECT_2 = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="ROADMAP defect 2: the Fock route has neither the "
                             "maintext amplitude nor statistical dephasing")


class TestOneExcitonBlock:
    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    @pytest.mark.parametrize("frequency_convention, stat_dephasing", [
        ("appendix", False),
        pytest.param("appendix", True, marks=DEFECT_2),
        pytest.param("maintext", False, marks=DEFECT_2),
        pytest.param("maintext", True, marks=DEFECT_2)])
    def test_one_exciton_block_holds_weff(self, frequency_convention, stat_dephasing,
                                          conjugation):
        # the 2 x 2 (1, 0) manifold-pair block of the deformed-basis L has
        # W_eff's eigenvalues, shifted by the carrier the rotating frame removes
        worst = 0.0
        for p in weff_draws():
            system = FockSystem(cutoff=2, theta=p.theta, modes=2)
            (_, _, l_last), _, _, _ = _pathway_blocks(system, build_dipole(system, conjugation),
                                                     p, "deformed", conjugation)
            q = system.total_quanta
            kets, bras, (_, _, last) = _pathway_states(tuple(q.tolist()))
            pair = (q[kets[last]] == 1) & (q[bras[last]] == 0)
            got = np.linalg.eigvals(l_last[np.ix_(pair, pair)]) - 1j * p.omega
            want = build_weff(p, frequency_convention, conjugation, stat_dephasing).eigenvalues
            gap = min(np.max(np.abs(got - want)), np.max(np.abs(got[::-1] - want)))
            worst = max(worst, gap / np.max(np.abs(want)))
        assert worst <= 1e-12


def dense_closure(pattern, support):
    """Sorted states reachable from ``support`` along the nonzeros of the whole
    d^2 x d^2 pattern, with no library block code."""
    reach = np.asarray(support, dtype=bool)
    while True:
        grown = reach | pattern[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def pathway_closures(dip, liouv, rho0):
    """R1/R2/R3 of the pathway: the dense closures of v0, mu_left R1 and
    mu_left R2."""
    pattern = liouv != 0
    mu_left, mu_right = dipole_superoperators(dip)
    first = dense_closure(pattern, mu_right @ rho0.ravel() != 0)
    mid = dense_closure(pattern, np.any(mu_left[:, first] != 0, axis=1))
    last = dense_closure(pattern, np.any(mu_left[:, mid] != 0, axis=1))
    return first, mid, last


class TestReachableClosure:
    @settings(deadline=None, max_examples=40)
    @given(theta=st.one_of(st.sampled_from((0.0, math.pi)), st.floats(0.0, math.pi)),
           xi=st.one_of(st.sampled_from((0.0, 1.0, -1.0)), st.floats(-1.0, 1.0)),
           beta=st.floats(0.05, 20.0),
           jump_basis=st.sampled_from(("site", "deformed")),
           conjugation=st.sampled_from(("modulus", "analytic")),
           t2=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
           count=st.integers(4, 6))
    # at xi = 1 the site basis leaves b_- undamped: the whole L has the
    # eigenvalue -2iJ = -0.4i on the unreached |2_-><0| coherence, exactly
    # singular at the old axis end -0.4 for this draw
    @example(theta=1e-14, xi=1.0, beta=1.05078125, jump_basis="site",
             conjugation="analytic", t2=0.0, count=4)
    def test_closure_spectrum_matches_dense_reference(self, theta, xi, beta, jump_basis,
                                                      conjugation, t2, count):
        p = AnyonParams(theta=theta, xi=xi, beta=beta)
        system = FockSystem(cutoff=2, theta=theta, modes=2)
        dip = build_dipole(system, conjugation)
        # the reference solves each interval on its closure in the whole L, so
        # neither the singular population block at detuning 0 nor the
        # undamped xi = +/-1 coherences at multiples of J cos(theta/2) that
        # the pathway never reaches enter it; this axis (count 4 to 6) also
        # holds no 0 and ends outside [-0.4, 0.4]
        grid = GridSpec(count=count, lo=-0.41, hi=0.45)
        got = rephasing_response(p, t2=t2, grid=grid, jump_basis=jump_basis,
                                 conjugation=conjugation).values
        want = dense_reference(system, dip, p, grid.axis(), t2, jump_basis, conjugation)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        liouv = build_liouvillian(system, p, jump_basis, conjugation, rotating=True)
        closures = pathway_closures(dip, liouv, system.vacuum_projector())
        for reach in closures:
            rest = np.setdiff1d(np.arange(liouv.shape[0]), reach)
            assert np.all(liouv[np.ix_(rest, reach)] == 0)
        # at theta = pi a mode holds at most one quantum: no |20>, |02> kets
        want_sizes = (2, 5, 6 if theta == math.pi else 10)
        assert tuple(r.size for r in closures) == want_sizes

    @settings(deadline=None, max_examples=40)
    @given(theta=st.one_of(st.sampled_from((0.0, math.pi)), st.floats(0.0, math.pi)),
           xi=st.one_of(st.sampled_from((0.0, 1.0, -1.0)), st.floats(-1.0, 1.0)),
           beta=st.floats(0.05, 20.0), cutoff=st.integers(2, 4),
           jump_basis=st.sampled_from(("site", "deformed")),
           conjugation=st.sampled_from(("modulus", "analytic")))
    def test_two_quanta_closures_match_the_dense_pattern(self, theta, xi, beta, cutoff,
                                                         jump_basis, conjugation):
        # the labelled R1/R2/R3 are L-invariant in the whole L and hold its
        # dense closures, so restricting to them is exact
        p = AnyonParams(theta=theta, xi=xi, beta=beta)
        system = FockSystem(cutoff=cutoff, theta=theta, modes=2)
        dip = build_dipole(system, conjugation)
        liouv = build_liouvillian(system, p, jump_basis, conjugation, rotating=True)
        want = pathway_closures(dip, liouv, system.vacuum_projector())
        sets = interval_states(system)
        blocks, mus, v0, tr_mu = _pathway_blocks(system, dip, p, jump_basis, conjugation)
        for reach, got, block in zip(want, sets, blocks):
            rest = np.setdiff1d(np.arange(liouv.shape[0]), got)
            assert np.all(liouv[np.ix_(rest, got)] == 0)
            assert np.all(np.isin(reach, got))
            assert block.tobytes() == liouv[np.ix_(got, got)].tobytes()
        assert tuple(r.size for r in sets) == (2, 5, 10)
        # the closures are the labelled sets, except R3 at theta = pi: a mode
        # holds at most one quantum there, so no |20>, |02> ket is reached
        fermion = theta == math.pi
        assert tuple(r.size for r in want) == (2, 5, 6 if fermion else 10)
        for reach, got in zip(want[:2] if fermion else want, sets):
            assert np.array_equal(reach, got)
        # the ket-side dipole blocks, the start vector and the trace row come
        # from the d x d dipole by the same labels
        mu_left, mu_right = dipole_superoperators(dip)
        for cols, rows, block in zip(sets, sets[1:], mus):
            assert np.array_equal(block, mu_left[np.ix_(rows, cols)])
        assert np.array_equal(v0, (mu_right @ system.vacuum_projector().ravel())[sets[0]])
        assert np.array_equal(tr_mu, (np.eye(system.dim).ravel() @ mu_right)[sets[2]])

    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    @pytest.mark.parametrize("jump_basis", ["site", "deformed"])
    def test_pathway_never_assembles_the_dense_liouvillian(self, monkeypatch, jump_basis,
                                                           conjugation):
        sizes = []

        def dense(terms, dim):
            raise AssertionError(f"a {dim ** 2}-state Liouvillian assembled on the spectra path")

        def spy(terms, kets, bras):
            sizes.append(kets.size)
            return kron_block(terms, kets, bras)

        p = AnyonParams(theta=0.9, xi=0.5, beta=0.5)
        kw = {"jump_basis": jump_basis, "conjugation": conjugation}
        kron_block = anyonosc.fock._kron_block
        # the dense assembly build_liouvillian calls, and the gather the spectra call
        monkeypatch.setattr(anyonosc.fock, "_kron_sum", dense)
        monkeypatch.setattr(anyonosc.spectra, "_kron_block", spy)
        grid = rephasing_response(p, t2=2.0, grid=GridSpec(count=4), **kw)
        point = response_point(p, -0.5, 0.5, t2=2.0, **kw)
        assert point == grid.values[0, -1]
        # per call, L and the ket-side dipole on the 15 pair states of R2 + R3
        assert sizes == [15] * 4

    @pytest.mark.parametrize("theta", [0.0, 0.9, 2.0, math.pi])
    @pytest.mark.parametrize("t2", [0.0, 7.5])
    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    @pytest.mark.parametrize("jump_basis", ["site", "deformed"])
    def test_vacuum_spectrum_does_not_depend_on_cutoff(self, jump_basis, conjugation, t2,
                                                       theta):
        # the grid of the parameter point alone is, bit for bit, the pathway
        # on a caller's system and dipole at every cutoff from 2 to 6
        p = AnyonParams(theta=theta, xi=0.5, beta=0.5)
        grid = GridSpec(count=12, lo=-0.5, hi=0.5)
        got = rephasing_response(p, t2=t2, grid=grid, jump_basis=jump_basis,
                                 conjugation=conjugation).values.tobytes()
        for cutoff in (2, 3, 4, 5, 6):
            system = FockSystem(cutoff=cutoff, theta=theta, modes=2)
            want = system_pathway(system, build_dipole(system, conjugation), p, t2,
                                  grid.axis(), jump_basis, conjugation)
            assert want.tobytes() == got, f"cutoff {cutoff}"

    @pytest.mark.parametrize("theta", [0.9, math.pi])
    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    @pytest.mark.parametrize("jump_basis", ["site", "deformed"])
    def test_dense_reference_does_not_depend_on_cutoff(self, jump_basis, conjugation, theta):
        # the dense per-frequency pathway on the whole L of each truncation
        # meets the one grid the parameter point gives
        p = AnyonParams(theta=theta, xi=0.5, beta=0.5)
        grid = GridSpec(count=6, lo=-0.5, hi=0.5)
        got = rephasing_response(p, t2=7.5, grid=grid, jump_basis=jump_basis,
                                 conjugation=conjugation).values
        for cutoff in (2, 3, 4, 5, 6):
            system = FockSystem(cutoff=cutoff, theta=p.theta, modes=2)
            want = dense_reference(system, build_dipole(system, conjugation), p, grid.axis(),
                                   7.5, jump_basis, conjugation)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), f"cutoff {cutoff}"


def rephasing_diagrams(system, p, times, jump_basis, conjugation, rotating=True):
    """The three phase-matched rephasing diagrams on the dense L in the time
    domain, and a bound on each: with mu_- = a1 + a2, mu_+ its raising partner
    (``FockSystem.dagger``) and G(t) = e^{L t},
    R = i^3 tr(mu_- G(t3) [mu_+, .] G(t2) [mu_+, .] G(t1) (-rho0 mu_-)), split by the side
    (ket mu_+ rho or bra -rho mu_+) of its second and third interactions: the
    ground-state bleach (bra, ket), stimulated emission (ket, bra) and
    excited-state absorption (ket, ket); the fourth (bra, bra) raises the
    vacuum's bra and is 0. The bound, the product of the Frobenius norms along
    the way, is the scale a diagram's rounding is relative to, decayed or not."""
    liouv = build_liouvillian(system, p, jump_basis, conjugation, rotating=rotating)
    lower = system.lowering[0] + system.lowering[1]
    upper = system.dagger(0, conjugation) + system.dagger(1, conjugation)
    eye = np.eye(system.dim)
    ket, bra = np.kron(upper, eye), -np.kron(eye, upper.T)
    g1, g2, g3 = (expm(liouv * t) for t in times)
    start = g1 @ (-(system.vacuum_projector() @ lower)).ravel()
    read = lower.T.ravel() @ g3  # tr(mu_- rho) on row-major vec(rho)
    diagrams = [(1j) ** 3 * (read @ (last @ (g2 @ (second @ start))))
                for second, last in ((bra, ket), (ket, bra), (ket, ket))]
    scale = math.prod(np.linalg.norm(m) for m in (lower, lower, upper, upper, g1, g2, g3))
    return diagrams, scale


class TestBosonCancellation:
    # At theta = 0 the model is linearly coupled bosons whose jumps only
    # lower: its dynamics is quadratic, and a harmonic system has no
    # third-order signal, so the three diagrams cancel (Mukamel 1995; Hamm &
    # Zanni 2011, ch. 4). The cancellation needs the two-quanta states, the
    # sqrt(2) ladder entries, the dipole and every jump term at once; the
    # deformed ladder lifts it for theta > 0.
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(xi=st.floats(-1.0, 1.0), log_beta=st.floats(math.log(0.1), math.log(20.0)),
           gamma=st.floats(0.01, 2.0), coupling_j=st.floats(-1.0, 1.0),
           times=st.tuples(*[st.floats(0.0, 10.0)] * 3), cutoff=st.integers(2, 3),
           jump_basis=st.sampled_from(("site", "deformed")),
           conjugation=st.sampled_from(("modulus", "analytic")), rotating=st.booleans())
    def test_bosons_have_no_rephasing_signal(self, xi, log_beta, gamma, coupling_j, times,
                                             cutoff, jump_basis, conjugation, rotating):
        # a bound relative to max |diagram| fails where every diagram has
        # decayed (their rounding stays relative to the propagators): the
        # bound is the scale
        p = AnyonParams(theta=0.0, xi=xi, beta=math.exp(log_beta), gamma=gamma,
                        coupling_j=coupling_j)
        diagrams, scale = rephasing_diagrams(FockSystem(cutoff, 0.0), p, times, jump_basis,
                                             conjugation, rotating)
        assert abs(sum(diagrams)) <= 1e-12 * scale

    @pytest.mark.parametrize("conjugation", ["modulus", "analytic"])
    @pytest.mark.parametrize("jump_basis", ["site", "deformed"])
    def test_statistics_lift_the_cancellation(self, jump_basis, conjugation):
        # at one undecayed point: theta = 0 cancels against the largest
        # diagram, theta = pi/2 leaves 0.60-0.68 of it, at cutoffs 2 and 3 alike
        times = (1.3, 0.7, 2.1)
        for theta, lo, hi in ((0.0, 0.0, 1e-12), (math.pi / 2, 0.60, 0.68)):
            p = AnyonParams(theta=theta, xi=0.3, beta=2.0)
            signals = []
            for cutoff in (2, 3):
                diagrams, _ = rephasing_diagrams(FockSystem(cutoff, theta), p, times, jump_basis,
                                                 conjugation)
                signals.append(sum(diagrams))
                largest = max(map(abs, diagrams))
                assert lo <= abs(signals[-1]) / largest <= hi, (theta, cutoff)
                assert abs(signals[-1] - signals[0]) <= 1e-13 * largest, (theta, cutoff)


class TestDiagonalSlice:
    def test_symmetric_lorentzian_peaks_at_zero(self):
        axis = np.linspace(-0.5, 0.5, 41)
        lor = 1.0 / (axis**2 + 0.01)
        grid = SpectrumGrid(axis, np.diag(lor).astype(complex) + 1e-6, np.eye(axis.size))
        det, vals = diagonal_slice(grid)
        m = lineshape_metrics(det, vals)
        assert m.peak_detuning == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(8, 7), (7, 7), (8,), (8, 8, 1)])
    def test_values_off_the_axis_are_refused_when_made(self, shape):
        with pytest.raises(ValueError, match="do not match a 8-point axis"):
            SpectrumGrid(np.linspace(-0.5, 0.5, 8), np.zeros(shape, complex), np.eye(8))

    def test_absorptive_profile_in_normal_regime(self):
        # the photon-echo diagonal peak carries >= 80% of the maximal |Re|:
        # an absorptive profile by the dispersiveness metric
        g, _ = small_grid(0.0, 0.0, n=128)
        det, vals = diagonal_slice(g)
        m = lineshape_metrics(det, vals)
        assert m.dispersiveness < 0.2
        i = int(np.argmax(np.abs(vals)))
        assert abs(vals.real[i]) >= 0.8 * np.max(np.abs(vals.real))

    def test_dispersive_profile_near_the_exceptional_point(self):
        # mode coalescence shows in the deformed-channel lineshape: the
        # one-excitation coherences of the Fock generator coalesce at the
        # W_eff exceptional point, and the diagonal peak moves from a split
        # W_eff branch below it onto the common frequency past it
        p = AnyonParams(theta=0.0, xi=1.0)
        ep = find_exceptional_point(p)

        def one_excitation_coherences(theta):
            system = FockSystem(cutoff=2, theta=theta, modes=2)
            q = system.total_quanta
            ket = np.repeat(q, system.dim)
            bra = np.tile(q, system.dim)
            idx = np.where((ket == 1) & (bra == 0))[0]
            liouv = build_liouvillian(system, p.with_(theta=theta), "deformed")
            return np.linalg.eigvals(liouv[np.ix_(idx, idx)])

        below = one_excitation_coherences(ep.theta - 0.3)
        at = one_excitation_coherences(ep.theta)
        assert abs(below[0] - below[1]) > 0.1
        assert abs(at[0] - at[1]) < ep.threshold

        def peak_and_branches(theta):
            g, _ = small_grid(theta, 1.0, n=96, jump_basis="deformed")
            det, vals = diagonal_slice(g)
            nus = [-lam.imag - p.omega for lam in build_weff(p.with_(theta=theta)).eigenvalues]
            return det, int(np.argmax(np.abs(vals))), nus

        det, i, nus = peak_and_branches(ep.theta - 0.3)
        step = det[1] - det[0]
        assert abs(nus[0] - nus[1]) > 10 * step  # split branches
        nearest = min(nus, key=lambda nu: abs(det[i] - nu))
        assert abs(i - int(np.argmin(np.abs(det - nearest)))) <= 1

        det, i, nus = peak_and_branches(ep.theta + 0.25)
        assert abs(nus[0] - nus[1]) <= 1e-12  # one common frequency
        assert abs(det[i] - nus[0]) <= step


class TestLineshapeMetrics:
    def test_pure_lorentzian_is_absorptive(self):
        x = np.linspace(-1.0, 1.0, 201)
        vals = (0.05 / (x**2 + 0.05**2)).astype(complex)
        m = lineshape_metrics(x, vals)
        assert m.dispersiveness == pytest.approx(0.0, abs=1e-12)
        assert abs(m.asymmetry) < 1e-4

    def test_derivative_profile_is_dispersive(self):
        # phase-rotated complex Lorentzian: |v| peaks at center where Re = 0
        x = np.linspace(-1.0, 1.0, 801)
        g = 0.05
        vals = 1j / (g + 1j * x)
        m = lineshape_metrics(x, vals)
        assert m.dispersiveness >= 0.9

    def test_monotone_dispersiveness_along_correlation(self):
        disps = []
        for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
            g, _ = small_grid(math.pi / 2, xi, n=128)
            det, vals = diagonal_slice(g)
            disps.append(lineshape_metrics(det, vals).dispersiveness)
        assert all(b >= a - 1e-12 for a, b in zip(disps, disps[1:]))

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            lineshape_metrics(np.array([]), np.array([]))


def overlay_rows(theta_list, params):
    """fig3's overlay rows (theta, xi, nu_1, nu_2, re_1, re_2) at the one xi
    of ``params``, with two-point spectra for the panels."""
    config = RunConfig(params=params, grid=GridSpec(count=2), theta_list=tuple(theta_list),
                       xi_list=(params.xi,))
    return GENERATORS["fig3-overlay"](config).rows


class TestBrightModeOverlay:
    def test_boson_point_frequencies(self):
        rows = overlay_rows([0.0], AnyonParams(theta=0.0, coupling_j=0.2))
        assert rows.shape == (1, 6)
        nus = sorted([rows[0, 2], rows[0, 3]])
        assert nus == pytest.approx([-0.2, 0.2], abs=1e-12)

    def test_no_coalescence_without_correlation(self):
        rows = overlay_rows([0.0, math.pi - 0.05], AnyonParams(theta=0.0, xi=0.0))
        assert np.array_equal(rows[:, 0], np.linspace(0.0, math.pi - 0.05, 201))
        assert np.min(np.abs(rows[:, 2] - rows[:, 3])) > 1e-3

    def test_coalescence_at_the_exceptional_point(self):
        p = AnyonParams(theta=0.0, xi=1.0)
        ep = find_exceptional_point(p)
        rows = overlay_rows([math.pi - 0.01, 0.0], p)
        assert np.all(np.diff(rows[:, 0]) > 0)  # the angles run up whatever the panels' order
        gaps = np.abs(rows[:, 2] - rows[:, 3])
        k = int(np.argmin(gaps))
        assert rows[k, 0] == pytest.approx(ep.theta, abs=0.02)

    def test_bright_branch_at_boson_point_is_upper(self):
        # fig3's slice peaks at the overlay's upper branch, +J, and is dim at -J
        config = RunConfig(params=AnyonParams(theta=0.0, xi=0.0, coupling_j=0.2),
                           grid=GridSpec(count=101), theta_list=(0.0,), xi_list=(0.0,))
        slices = run_fig3(config)
        lower, upper = np.sort(GENERATORS["fig3-overlay"](config).rows[0, 2:4])
        assert upper == pytest.approx(0.2, abs=1e-12)
        det, mag = slices.column("detuning"), slices.column("abs")
        assert abs(det[np.argmax(mag)] - upper) <= det[1] - det[0]
        assert mag[np.argmin(np.abs(det - upper))] > 5.0 * mag[np.argmin(np.abs(det - lower))]
