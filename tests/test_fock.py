import cmath
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anyonosc import (AnyonParams, FockSystem, anyon_ladder_matrix, build_dipole,
                      build_hamiltonian, build_liouvillian, build_weff, channel_coefficients,
                      fit_decay_rate, gamma_full_single, normal_mode_frequencies,
                      resolvent_apply)
from anyonosc.dimer import deformed_mode_phase
from anyonosc.fock import JUMP_BASES, expm, jump_operators, liouvillian_terms
from anyonosc.rates import thermal_occupation
from anyonosc.spectra import _closure, _low_liouvillian


def coherence_order(system):
    """Delta q = ket quanta - bra quanta of every row-major vectorized state."""
    return np.subtract.outer(system.total_quanta, system.total_quanta).ravel()


def dense_kron_liouvillian(system, params, jump_basis, conjugation, rotating):
    """Reference generator summed from dense np.kron products."""
    eye = np.eye(system.dim, dtype=complex)
    h = build_hamiltonian(system, params, conjugation, rotating)
    liouv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for lop, ldag in jump_operators(system, params, jump_basis, conjugation):
        ll = ldag @ lop
        liouv += np.kron(lop, ldag.T) - 0.5 * (np.kron(ll, eye) + np.kron(eye, ll.T))
    return liouv


def reference_jump_operators(system, params, jump_basis, conjugation):
    """Two-mode jump pairs built channel by channel from per-point scalar
    coefficients: the previous implementation, kept as the reference."""
    nth = thermal_occupation(params.theta, params.beta, params.omega)
    phase = cmath.exp(-1j * params.theta / 2.0)
    a1, a2 = system.lowering
    a1d, a2d = system.raising
    g = deformed_mode_phase(params.theta)
    bp = (a1 + g * a2) / math.sqrt(2.0)
    bm = (a1 - g * a2) / math.sqrt(2.0)
    bpd = (a1d + np.conj(g) * a2d) / math.sqrt(2.0)
    bmd = (a1d - np.conj(g) * a2d) / math.sqrt(2.0)
    pairs = []
    for nbar in (nth + 1.0, nth):
        pref = np.sqrt(complex(params.gamma) * nbar)
        for sgn in (+1, -1):
            if jump_basis == "site":
                scalar = pref * math.sqrt(max(0.0, 1.0 + sgn * params.xi))
                lop = scalar * ((a1 + sgn * a2) / math.sqrt(2.0))
                formal = scalar * ((a1d + sgn * a2d) / math.sqrt(2.0))
            else:
                weight = math.sqrt(max(0.0, 1.0 + sgn * params.xi)) / 2.0
                lam_plus = pref * weight
                lam_minus = sgn * pref * weight * phase
                lop = math.sqrt(2.0) * (lam_plus * bp + lam_minus * bm)
                formal = math.sqrt(2.0) * (pref * weight * bpd
                                           + sgn * pref * weight * np.conj(phase) * bmd)
            pairs.append((lop, lop.conj().T if conjugation == "modulus" else formal))
    return pairs


def coherence_block_indices(system):
    """Superoperator indices of the (ket quanta - bra quanta = 1) sector."""
    q = system.total_quanta
    d = system.dim
    ket = np.repeat(q, d)
    bra = np.tile(q, d)
    return np.where(ket - bra == 1)[0]


def population_block(system, params, jump_basis, conjugation, whole):
    """A Delta q = 0 block of the rotating L: the whole block when ``whole``,
    else L[R2, R2], the t2 propagator's block on the closure of what the
    first ket-side dipole reaches from the vacuum (as in spectra)."""
    liouv = build_liouvillian(system, params, jump_basis, conjugation, rotating=True)
    if whole:
        states = np.flatnonzero(coherence_order(system) == 0)
        return liouv[np.ix_(states, states)]
    mu = build_dipole(system, conjugation)
    mu_left = np.kron(mu, np.eye(system.dim))  # ket-side rho -> mu rho, row-major
    pattern = liouv != 0
    first = _closure(pattern, (system.vacuum_projector() @ mu).ravel() != 0)
    mid = _closure(pattern, np.any(mu_left[:, first] != 0, axis=1))
    return liouv[np.ix_(mid, mid)]


# zero of either sign, subnormals and the smallest normal float
TINY = st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585e-313, 1e-310,
                        2.2250738585072014e-308))

# bath ranges of the exponential and trace properties (those of the jump property)
BATH = dict(theta=st.floats(0.0, math.pi), xi=st.floats(-1.0, 1.0),
            gamma=st.floats(0.0, 2.0), beta=st.floats(0.05, 20.0))


class TestLadderMatrices:
    def test_boson_ladder(self):
        a = anyon_ladder_matrix(6, 0.0)
        for n in range(1, 7):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))

    def test_fermion_cutoff_one(self):
        a = anyon_ladder_matrix(1, math.pi)
        assert a[0, 1] == pytest.approx(1.0)
        # [2]_q = 0 at theta = pi: no two-quantum amplitude exists at any cutoff
        a2 = anyon_ladder_matrix(2, math.pi)
        assert abs(a2[1, 2]) <= 1e-15

    def test_quarter_angle_entry(self):
        a = anyon_ladder_matrix(2, math.pi / 2)
        assert a[1, 2] == pytest.approx(np.sqrt(1.0 + 1.0j), abs=1e-14)

    def test_deformed_relation_below_cutoff(self):
        for theta in np.linspace(0.0, math.pi, 13):
            sys1 = FockSystem(cutoff=7, theta=theta, modes=1)
            a = sys1.lowering[0]
            ad = sys1.raising[0]
            rel = a @ ad - cmath.exp(1j * theta) * ad @ a
            sub = rel[:7, :7] - np.eye(7)
            assert np.linalg.norm(sub) <= 1e-13

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            anyon_ladder_matrix(0, 0.3)


class TestBraidedEmbedding:
    def test_boson_operators_commute(self):
        a1, a2 = FockSystem(3, 0.0, modes=2).lowering
        assert np.linalg.norm(a1 @ a2 - a2 @ a1) <= 1e-14

    def test_fermion_string_is_parity(self):
        sys2 = FockSystem(cutoff=2, theta=math.pi, modes=2)
        parity = np.diag([(-1.0) ** n for n in range(3)])
        assert np.allclose(sys2.phase_string, parity)

    def test_braiding_relation_over_angles(self):
        for theta in np.linspace(0.0, math.pi, 13):
            a1, a2 = FockSystem(3, theta, modes=2).lowering
            defect = np.linalg.norm(a1 @ a2 - cmath.exp(1j * theta) * a2 @ a1)
            assert defect <= 1e-13

    def test_mode_two_deformed_relation(self):
        for theta in (0.0, 1.1, math.pi):
            sys2 = FockSystem(cutoff=3, theta=theta, modes=2)
            a2 = sys2.lowering[1]
            a2d = sys2.raising[1]
            rel = a2 @ a2d - cmath.exp(1j * theta) * a2d @ a2
            # restrict to states below the mode-2 cutoff
            keep = [i for i in range(sys2.dim) if i % 4 != 3]
            sub = rel[np.ix_(keep, keep)] - np.eye(len(keep))
            assert np.linalg.norm(sub) <= 1e-13


class TestHamiltonian:
    def test_uncoupled_is_diagonal(self):
        sys2 = FockSystem(cutoff=2, theta=0.7, modes=2)
        h = build_hamiltonian(sys2, AnyonParams(theta=0.7, coupling_j=0.0))
        assert np.linalg.norm(h - np.diag(np.diagonal(h))) <= 1e-14
        assert np.allclose(np.diagonal(h).real, sys2.total_quanta)

    def test_boson_one_excitation_splitting(self):
        sys2 = FockSystem(cutoff=2, theta=0.0, modes=2)
        h = build_hamiltonian(sys2, AnyonParams(theta=0.0, coupling_j=0.2))
        idx = np.where(sys2.total_quanta == 1)[0]
        evals = np.sort(np.linalg.eigvalsh(h[np.ix_(idx, idx)]))
        assert evals == pytest.approx([0.8, 1.2], abs=1e-12)

    def test_one_excitation_splitting_is_angle_independent(self):
        # the q-deformation does not enter the single-excitation block (only
        # [1]_q = 1 appears there); theta enters through the deformed-mode
        # exchange alone, so the eigenvalues are the normal-mode frequencies
        # omega +/- J cos(theta/2)
        for theta in (0.0, math.pi / 2, 2.5, math.pi):
            p = AnyonParams(theta=theta, coupling_j=0.2)
            sys2 = FockSystem(cutoff=2, theta=theta, modes=2)
            h = build_hamiltonian(sys2, p)
            idx = np.where(sys2.total_quanta == 1)[0]
            evals = np.sort(np.linalg.eigvals(h[np.ix_(idx, idx)]).real)
            assert evals == pytest.approx(sorted(normal_mode_frequencies(p)), abs=1e-12)

    def test_rotating_frame_removes_carrier(self):
        sys2 = FockSystem(cutoff=2, theta=0.4, modes=2)
        p = AnyonParams(theta=0.4)
        h = build_hamiltonian(sys2, p, rotating=True)
        idx = np.where(sys2.total_quanta == 1)[0]
        evals = np.sort(np.linalg.eigvals(h[np.ix_(idx, idx)]).real)
        split = 0.2 * math.cos(0.2)
        assert evals == pytest.approx([-split, split], abs=1e-12)


class TestLiouvillian:
    def test_closed_system_spectrum_is_imaginary(self):
        sys1 = FockSystem(cutoff=4, theta=0.0, modes=1)
        liouv = build_liouvillian(sys1, AnyonParams(theta=0.0, gamma=0.0))
        evals = np.linalg.eigvals(liouv)
        assert np.max(np.abs(evals.real)) <= 1e-12

    def test_trace_functional_annihilates_generator(self):
        for theta in (0.0, 1.3, math.pi):
            sys2 = FockSystem(cutoff=2, theta=theta, modes=2)
            for basis in ("site", "deformed"):
                liouv = build_liouvillian(sys2, AnyonParams(theta=theta, xi=0.6), basis)
                assert np.linalg.norm(np.eye(sys2.dim).ravel() @ liouv) <= 1e-12

    def test_trace_preserved_on_random_hermitian_inputs(self):
        rng = np.random.default_rng(3)
        sys2 = FockSystem(cutoff=2, theta=0.9, modes=2)
        liouv = build_liouvillian(sys2, AnyonParams(theta=0.9, xi=0.5))
        for _ in range(10):
            m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            rho = m + m.conj().T
            drho = (liouv @ rho.ravel()).reshape(9, 9)
            assert abs(np.trace(drho)) <= 1e-12

    def test_single_mode_slowest_coherence_eigenvalue(self):
        sys1 = FockSystem(cutoff=8, theta=0.0, modes=1)
        p = AnyonParams(theta=0.0, gamma=0.1, beta=1.0)
        liouv = build_liouvillian(sys1, p)
        evals = np.linalg.eigvals(liouv)
        coh = evals[np.abs(evals.imag + 1.0) < 0.2]  # frequency ~ omega sector
        slowest = coh[np.argmax(coh.real)]
        want = -0.05 * (2.0 / (math.e - 1.0) + 1.0)
        assert slowest.real == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(-0.10820, abs=5e-6)

    def test_jump_bases_differ_but_agree_at_zero_correlation_one_excitation(self):
        sys2 = FockSystem(cutoff=2, theta=0.0, modes=2)
        p = AnyonParams(theta=0.0, xi=0.5)
        site = build_liouvillian(sys2, p, "site")
        deformed = build_liouvillian(sys2, p, "deformed")
        assert np.linalg.norm(site - deformed) > 1e-3  # genuinely different generators
        # at xi = 0 the two slowest coherence eigenvalues coincide (higher
        # quanta sectors legitimately differ between the constructions)
        idx = coherence_block_indices(sys2)
        p0 = AnyonParams(theta=0.0, xi=0.0)
        s0 = build_liouvillian(sys2, p0, "site")[np.ix_(idx, idx)]
        d0 = build_liouvillian(sys2, p0, "deformed")[np.ix_(idx, idx)]
        es = np.linalg.eigvals(s0)
        ed = np.linalg.eigvals(d0)
        es = es[np.argsort(-es.real)][:2]
        ed = ed[np.argsort(-ed.real)][:2]
        assert np.allclose(np.sort_complex(es), np.sort_complex(ed), atol=1e-10)

    def test_deformed_basis_matches_weff_at_theta_zero(self):
        sys2 = FockSystem(cutoff=4, theta=0.0, modes=2)
        idx = coherence_block_indices(sys2)
        for xi in (0.0, 0.5, -0.5, 1.0, -1.0):
            p = AnyonParams(theta=0.0, xi=xi)
            liouv = build_liouvillian(sys2, p, "deformed")
            block = liouv[np.ix_(idx, idx)]
            evals = np.linalg.eigvals(block)
            slow = evals[np.argsort(-evals.real)][:2]
            lw = sorted(build_weff(p).eigenvalues, key=lambda z: -z.real)
            err = min(
                max(abs(slow[0] - lw[0]), abs(slow[1] - lw[1])),
                max(abs(slow[0] - lw[1]), abs(slow[1] - lw[0])),
            )
            assert err <= 1e-10

    def test_deformed_basis_contains_weff_away_from_theta_zero(self):
        # the Delta q = +1 block contains both W_eff eigenvalues at every
        # angle, because H and the deformed jumps share the modes b~+/-
        for theta in (0.86, 1.3, math.pi / 2, 2.5, 3.0):
            sys3 = FockSystem(cutoff=3, theta=theta, modes=2)
            idx = coherence_block_indices(sys3)
            for xi in (0.0, 0.5, -0.5, 1.0, -1.0):
                p = AnyonParams(theta=theta, xi=xi)
                liouv = build_liouvillian(sys3, p, "deformed")
                evals = np.linalg.eigvals(liouv[np.ix_(idx, idx)])
                for lam in build_weff(p).eigenvalues:
                    assert np.min(np.abs(evals - lam)) <= 1e-10, (theta, xi, lam)


class TestLiouvillianAssembly:
    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
    def test_matches_dense_kron_reference(self, cutoff, modes):
        # the terms are summed entry by entry instead of matrix by matrix, so
        # only the order of the additions differs from the reference
        for theta in (0.0, 0.9, math.pi):
            system = FockSystem(cutoff=cutoff, theta=theta, modes=modes)
            p = AnyonParams(theta=theta, xi=0.5, beta=0.7)
            for basis in ("site", "deformed"):
                for conj in ("modulus", "analytic"):
                    for rotating in (False, True):
                        liouv = build_liouvillian(system, p, basis, conj, rotating)
                        ref = dense_kron_liouvillian(system, p, basis, conj, rotating)
                        err = np.max(np.abs(liouv - ref))
                        assert err <= 1e-15 * np.max(np.abs(ref)), (theta, basis, conj, rotating)

    @settings(deadline=None, max_examples=100)
    @given(theta=st.one_of(st.sampled_from((0.0, math.pi)), TINY, st.floats(0.0, math.pi)),
           xi=st.one_of(st.sampled_from((0.0, 1.0, -1.0)), TINY, TINY.map(lambda v: -v),
                        st.floats(-1.0, 1.0)),
           gamma=st.one_of(TINY, st.floats(0.0, 2.0)), beta=st.floats(0.05, 20.0),
           cutoff=st.integers(1, 3), flips=st.tuples(st.booleans(), st.booleans(),
                                                     st.booleans()))
    # a subnormal theta: n_theta's imaginary part is subnormal and would lose
    # its last bit if the site scalar were formed as 2 * (scalar / 2)
    @example(theta=2.2250738585e-313, xi=0.0, gamma=2.0, beta=1.0, cutoff=1,
             flips=(False, False, False))
    def test_jump_operators_match_the_channel_loop(self, theta, xi, gamma, beta, cutoff,
                                                   flips):
        # subnormal and signed-zero theta, xi and gamma too: the channel table
        # and both bases stay finite, and a zero of either sign is one value
        system = FockSystem(cutoff=cutoff, theta=theta, modes=2)
        p = AnyonParams(theta=theta, xi=xi, gamma=gamma, beta=beta)
        q = AnyonParams(beta=beta, **{name: -getattr(p, name) if flip and getattr(p, name) == 0.0
                                      else getattr(p, name)
                                      for name, flip in zip(("theta", "xi", "gamma"), flips)})
        flipped = FockSystem(cutoff=cutoff, theta=q.theta, modes=2)
        for conj in ("modulus", "analytic"):
            table = np.array(channel_coefficients(p, conj))
            assert np.all(np.isfinite(table))
            assert np.array_equal(table, np.array(channel_coefficients(q, conj)))
            for basis in ("site", "deformed"):
                got = jump_operators(system, p, basis, conj)
                ref = reference_jump_operators(system, p, basis, conj)
                other = jump_operators(flipped, q, basis, conj)
                assert len(got) == len(ref) == 4
                for (lop, ldag), (rlop, rldag), (olop, oldag) in zip(got, ref, other):
                    assert np.all(np.isfinite(lop)) and np.all(np.isfinite(ldag))
                    assert np.array_equal(lop, rlop), (basis, conj)
                    assert np.array_equal(ldag, rldag), (basis, conj)
                    assert np.array_equal(lop, olop) and np.array_equal(ldag, oldag)

    @settings(deadline=None, max_examples=60)
    @given(theta=st.one_of(st.sampled_from((0.0, math.pi)), st.floats(0.0, math.pi)),
           xi=st.one_of(st.sampled_from((0.0, 1.0, -1.0)), st.floats(-1.0, 1.0)),
           gamma=st.floats(0.0, 2.0), beta=st.floats(0.05, 20.0),
           cutoff=st.integers(1, 4), jump_basis=st.sampled_from(JUMP_BASES),
           conjugation=st.sampled_from(("modulus", "analytic")))
    # the subnormal theta of the jump property, at cutoff 1
    @example(theta=2.2250738585e-313, xi=0.0, gamma=2.0, beta=1.0, cutoff=1,
             jump_basis="site", conjugation="analytic")
    def test_two_quanta_block_is_the_dense_block(self, theta, xi, gamma, beta, cutoff,
                                                 jump_basis, conjugation):
        system = FockSystem(cutoff=cutoff, theta=theta, modes=2)
        p = AnyonParams(theta=theta, xi=xi, gamma=gamma, beta=beta)
        low, got = _low_liouvillian(system, p, jump_basis, conjugation)
        # |00>, |01>, |10>, |11> at cutoff 1; |02> and |20> join from cutoff 2
        want_low = [0, 1, 2, 3] if cutoff == 1 else [0, 1, 2, cutoff + 1, cutoff + 2,
                                                      2 * cutoff + 2]
        assert low.tolist() == want_low
        pairs = (low[:, None] * system.dim + low).ravel()
        want = build_liouvillian(system, p, jump_basis, conjugation, rotating=True)[
            np.ix_(pairs, pairs)]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("modes", [1, 2])
    def test_unknown_conjugation_rejected(self, modes):
        system = FockSystem(cutoff=2, theta=0.5, modes=modes)
        p = AnyonParams(theta=0.5)
        with pytest.raises(ValueError, match="conjugation"):
            build_liouvillian(system, p, conjugation="bogus")
        for basis in JUMP_BASES:
            with pytest.raises(ValueError, match="conjugation"):
                jump_operators(system, p, basis, "bogus")

    @pytest.mark.parametrize("modes", [1, 2])
    def test_system_and_params_must_share_theta(self, modes):
        # the ladder matrices carry the system's theta and the Hamiltonian and
        # jumps the parameters': unchecked, a mismatch gives a finite
        # Liouvillian whose provenance names only the parameters' angle (the
        # spectra build their system from the parameters and cannot mismatch)
        from anyonosc.spectra import rephasing_response_quadrature
        system = FockSystem(cutoff=2, theta=0.3, modes=modes)
        p = AnyonParams(theta=1.2, xi=0.5)
        message = "FockSystem theta 0.3 differs from params theta 1.2"
        with pytest.raises(ValueError, match=message):
            liouvillian_terms(system, p)
        with pytest.raises(ValueError, match=message):
            build_liouvillian(system, p)
        if modes == 2:
            with pytest.raises(ValueError, match=message):
                rephasing_response_quadrature(system, build_dipole(system), p, np.array([0.1]))
        # signed zeros are one angle
        liouvillian_terms(FockSystem(cutoff=2, theta=-0.0, modes=modes), AnyonParams(theta=0.0))

    @pytest.mark.parametrize("theta", [0.0, 1.3])
    def test_no_entry_outside_the_coherence_blocks(self, theta):
        system = FockSystem(cutoff=6, theta=theta, modes=2)
        order = coherence_order(system)
        for basis in ("site", "deformed"):
            liouv = build_liouvillian(system, AnyonParams(theta=theta, xi=0.5), basis)
            rows, cols = np.nonzero(liouv)
            assert liouv.shape == (2401, 2401)
            assert np.array_equal(order[rows], order[cols])


class TestExpm:
    @settings(deadline=None, max_examples=80)
    @given(**BATH, cutoff=st.integers(2, 3), jump_basis=st.sampled_from(JUMP_BASES),
           conjugation=st.sampled_from(("modulus", "analytic")),
           whole=st.booleans(), t2=st.floats(0.0, 50.0))
    def test_population_blocks_match_scipy(self, theta, xi, gamma, beta, cutoff,
                                           jump_basis, conjugation, whole, t2):
        # the whole Delta q = 0 block (19 states at cutoff 2, 44 at cutoff 3)
        # puts larger matrices than the 5-state vacuum R2 through expm
        p = AnyonParams(theta=theta, xi=xi, gamma=gamma, beta=beta)
        block = t2 * population_block(FockSystem(cutoff, theta, 2), p, jump_basis,
                                      conjugation, whole)
        ref = sla.expm(block)
        # the reference's error grows with its s = log2(|Lt|_1 / theta_13)
        # squarings: at |Lt|_1 = 4.8e4 (gamma 2, beta 0.05, t2 50) scipy is
        # 2.7e-13 from a 40-digit exponential, expm 5.6e-16
        growth = max(1.0, np.linalg.norm(block, 1) / 250.0)
        tol = 1e-13 * max(1.0, np.max(np.abs(ref))) * growth
        assert np.max(np.abs(expm(block) - ref)) <= tol

    def test_zero_and_diagonal(self):
        assert np.max(np.abs(expm(np.zeros((3, 3), dtype=complex)) - np.eye(3))) <= 1e-15
        d = np.array([-30.0, 0.5j, 2.0 - 1.0j])
        err = np.max(np.abs(expm(np.diag(d)) - np.diag(np.exp(d))))
        assert err <= 1e-14 * np.max(np.abs(np.exp(d)))

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            expm(np.array([[0.0, np.nan], [0.0, 0.0]]))


class TestPropagation:
    @settings(deadline=None, max_examples=60)
    @given(**BATH, cutoff=st.integers(1, 3), modes=st.sampled_from((1, 2)),
           jump_basis=st.sampled_from(JUMP_BASES),
           boltzmann=st.booleans(), t=st.floats(0.0, 50.0))
    def test_trace_is_kept(self, theta, xi, gamma, beta, cutoff, modes, jump_basis,
                           boltzmann, t):
        # "modulus" only: "analytic" generators can grow without bound
        system = FockSystem(cutoff, theta, modes)
        p = AnyonParams(theta=theta, xi=xi, gamma=gamma, beta=beta)
        liouv = build_liouvillian(system, p, jump_basis, "modulus")
        rho = system.vacuum_projector()
        if boltzmann:
            w = np.exp(-p.beta * p.omega * system.total_quanta)
            rho = np.diag(w / w.sum()).astype(complex)
        out = expm(liouv * t) @ rho.ravel()
        assert abs(np.trace(out.reshape(rho.shape)) - 1.0) <= 1e-12

    def test_steady_state_is_fixed_point(self):
        sys1 = FockSystem(cutoff=6, theta=0.0, modes=1)
        liouv = build_liouvillian(sys1, AnyonParams(theta=0.0, gamma=0.1))
        kernel = np.linalg.svd(liouv)[2][-1].conj()  # smallest right singular vector
        ss = kernel / np.trace(kernel.reshape(7, 7))
        assert np.linalg.norm(expm(liouv * 50.0) @ ss - ss) <= 1e-8

    def test_coherence_decay_rate_matches_closed_form(self):
        p = AnyonParams(theta=0.0, gamma=0.1, beta=1.0)
        sys1 = FockSystem(cutoff=8, theta=0.0, modes=1)
        liouv = build_liouvillian(sys1, p)
        a = sys1.lowering[0]
        # small displaced state gives <a> != 0
        rho = sys1.vacuum_projector()
        alpha = 0.2
        disp = sla.expm(alpha * sys1.raising[0] - np.conj(alpha) * sys1.lowering[0])
        rho = disp @ rho @ disp.conj().T
        times = np.linspace(0.0, 5.0 / p.gamma, 60)
        step = sla.expm(liouv * (times[1] - times[0]))
        vec = rho.ravel()
        series = []
        for _ in times:
            series.append(np.trace(a @ vec.reshape(9, 9)))
            vec = step @ vec
        rate, freq, resid, flagged = fit_decay_rate(times, np.array(series))
        want = gamma_full_single(p).real
        assert rate == pytest.approx(want, rel=1e-3)
        assert freq == pytest.approx(1.0, rel=1e-6)
        assert not flagged

    def test_cutoff_convergence_of_fitted_rate(self):
        p = AnyonParams(theta=0.0, gamma=0.1, beta=1.0)
        rates = {}
        for cutoff in (8, 12):
            sys1 = FockSystem(cutoff=cutoff, theta=0.0, modes=1)
            liouv = build_liouvillian(sys1, p)
            d = cutoff + 1
            a = sys1.lowering[0]
            alpha = 0.2
            disp = sla.expm(alpha * sys1.raising[0] - np.conj(alpha) * a)
            vec = (disp @ sys1.vacuum_projector() @ disp.conj().T).ravel()
            times = np.linspace(0.0, 5.0 / p.gamma, 60)
            step = sla.expm(liouv * (times[1] - times[0]))
            series = []
            for _ in times:
                series.append(np.trace(a @ vec.reshape(d, d)))
                vec = step @ vec
            rates[cutoff], _, _, _ = fit_decay_rate(times, np.array(series))
        assert abs(rates[8] - rates[12]) / abs(rates[12]) <= 1e-4

    def test_hermiticity_preserved_at_boson_and_fermion_points(self):
        rng = np.random.default_rng(9)
        for theta in (0.0, math.pi):
            sys2 = FockSystem(cutoff=2, theta=theta, modes=2)
            p = AnyonParams(theta=theta, xi=0.4)
            liouv = build_liouvillian(sys2, p, "site")
            m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            rho = m @ m.conj().T
            rho = rho / np.trace(rho)
            out = (expm(liouv * (10.0 / p.gamma)) @ rho.ravel()).reshape(9, 9)
            assert np.linalg.norm(out - out.conj().T) <= 1e-11


class TestResolvent:
    def test_solve_residual(self):
        sys2 = FockSystem(cutoff=2, theta=0.6, modes=2)
        p = AnyonParams(theta=0.6, xi=0.3)
        liouv = build_liouvillian(sys2, p)
        rng = np.random.default_rng(4)
        v = rng.normal(size=liouv.shape[0]) + 1j * rng.normal(size=liouv.shape[0])
        x = resolvent_apply(liouv, 0.17, +1, v)
        shifted = 1j * 0.17 * np.eye(liouv.shape[0]) - liouv
        assert np.linalg.norm(shifted @ x + v) <= 1e-10 * np.linalg.norm(v)

    def test_forward_error_within_the_condition_bound(self):
        sys2 = FockSystem(cutoff=2, theta=0.6, modes=2)
        liouv = build_liouvillian(sys2, AnyonParams(theta=0.6, xi=0.3))
        v = np.ones(liouv.shape[0], dtype=complex)
        for omega in (-0.4, 0.17, 1.0):
            x = resolvent_apply(liouv, omega, -1, v)
            shifted = -1j * omega * np.eye(liouv.shape[0]) - liouv
            ref = sla.lu_solve(sla.lu_factor(shifted), -v)  # scipy's own LU
            cond = np.linalg.cond(shifted, 1)
            err = np.linalg.norm(x - ref, 1) / np.linalg.norm(ref, 1)
            assert err <= 64 * np.finfo(float).eps * cond

    def test_single_decaying_mode_lorentzian(self):
        # 1x1 generator lambda = -i w0 - G: the conjugate interval (sign -1)
        # gives the Lorentzian magnitude 1/sqrt((w - w0)^2 + G^2) centered at +w0
        w0, g = 0.3, 0.05
        liouv = np.array([[-1j * w0 - g]], dtype=complex)
        v = np.array([1.0 + 0j])
        for w in np.linspace(-1.0, 1.0, 21):
            x = resolvent_apply(liouv, w, -1, v)
            want = 1.0 / math.sqrt((w - w0) ** 2 + g**2)
            assert abs(x[0]) == pytest.approx(want, rel=1e-12)

    def test_quadrature_agreement_on_coherence_vector(self):
        p = AnyonParams(theta=0.0, xi=0.5, gamma=0.1)
        sys2 = FockSystem(cutoff=2, theta=0.0, modes=2)
        liouv = build_liouvillian(sys2, p)
        rho = sys2.vacuum_projector()
        mu = sys2.lowering[0] + sys2.raising[0] + sys2.lowering[1] + sys2.raising[1]
        v = (rho @ mu).ravel()  # vec(rho mu): a pure coherence-sector vector
        omega, sign = 0.21, -1
        x = resolvent_apply(liouv, omega, sign, v)
        horizon, dt = 20.0 / p.gamma, 0.05
        n = int(round(horizon / dt))
        if n % 2:
            n += 1
        step = sla.expm(liouv * dt)
        traj = np.empty((n + 1, v.size), complex)
        cur = v.astype(complex)
        for k in range(n + 1):
            traj[k] = cur
            cur = step @ cur
        t = np.arange(n + 1) * dt
        wts = np.ones(n + 1)
        wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
        quad = -((dt / 3.0) * wts * np.exp(-sign * 1j * omega * t)) @ traj
        assert np.linalg.norm(x - quad) / np.linalg.norm(x) <= 1e-4

    def test_bad_sign_rejected(self):
        liouv = np.array([[-1j - 0.1]], dtype=complex)
        with pytest.raises(ValueError):
            resolvent_apply(liouv, 0.1, 2, np.array([1.0 + 0j]))


class TestFitDecayRate:
    def test_exact_exponential_recovery(self):
        t = np.linspace(0.0, 40.0, 200)
        series = 0.7 * np.exp((-0.0832 - 1.17j) * t)
        rate, freq, resid, flagged = fit_decay_rate(t, series)
        assert rate == pytest.approx(0.0832, abs=1e-8)
        assert freq == pytest.approx(1.17, abs=1e-8)
        assert resid <= 1e-10
        assert not flagged

    def test_defective_dynamics_is_flagged(self):
        # exactly at the exceptional point the propagator picks up a secular
        # (1 + c t) e^{lambda t} factor: distinctly non-exponential
        from anyonosc import find_exceptional_point
        p = AnyonParams(theta=0.0, xi=1.0)
        ep = find_exceptional_point(p)
        w = build_weff(p.with_(theta=ep.theta))
        t = np.linspace(0.0, 5.0 / p.gamma, 120)
        series = np.array([sla.expm(w.entries * tk)[0, 0] for tk in t])
        rate, freq, resid, flagged = fit_decay_rate(t, series)
        assert flagged
        assert resid > 1e-2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.array([0.0, 1.0]), np.array([1.0 + 0j, 0.5]))
