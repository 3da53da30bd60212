"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see every line. Criteria 7
and 8 test the Fock spectra against the W_eff normal modes; they hold because
the Fock Hamiltonian is built on the deformed modes b~+/- = (a1 +/- g a2)/sqrt2
with g = e^{-i theta/2} (see the README's Conventions section).
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

from anyonosc import (AnyonParams, FockSystem, GridSpec, RunConfig,
                      build_dipole, build_liouvillian, build_weff,
                      diagonal_slice, find_exceptional_point,
                      fit_decay_rate, gamma_full_single, gamma_stat,
                      lineshape_metrics, phase_average, rephasing_response)
from anyonosc.dimer import deformed_mode_phase
from anyonosc.output import csv_text
from anyonosc.rates import phase_average_series
from anyonosc.spectra import rephasing_response_quadrature, response_point
from anyonosc.sweeps import GENERATORS, SweepAxis, run_fig1, run_fig2, run_fig3


def report(num, name, ok, detail):
    print(f"CRITERION {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_boson_limit_rate():
    # The same build and exponentials once, untimed: a cold process's one-time
    # loading on first use is not the library's compute, and it fell inside
    # the timed window when this test ran first.
    warm = FockSystem(cutoff=8, theta=0.0, modes=1)
    sla.expm(0.2 * warm.raising[0] - 0.2 * warm.lowering[0])
    sla.expm(build_liouvillian(warm, AnyonParams(theta=0.0, beta=1.0, gamma=0.1)))
    t0 = time.perf_counter()
    p = AnyonParams(theta=0.0, beta=1.0, gamma=0.1)
    want = 0.05 * (2.0 / (math.e - 1.0) + 1.0)
    got = gamma_full_single(p).real
    closed_ok = abs(got - want) <= 1e-12

    system = FockSystem(cutoff=8, theta=0.0, modes=1)
    liouv = build_liouvillian(system, p)
    a = system.lowering[0]
    disp = sla.expm(0.2 * system.raising[0] - 0.2 * a)
    vec = (disp @ system.vacuum_projector() @ disp.conj().T).ravel()
    times = np.linspace(0.0, 5.0 / p.gamma, 60)
    step = sla.expm(liouv * (times[1] - times[0]))
    series = []
    for _ in times:
        series.append(np.trace(a @ vec.reshape(9, 9)))
        vec = step @ vec
    rate, _, _, _ = fit_decay_rate(times, np.array(series))
    fock_ok = abs(rate - want) / want <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = closed_ok and fock_ok and elapsed < 1.0
    assert report(1, "boson-limit rate", ok,
                  f"closed |err|={abs(got - want):.1e}, fock rel={abs(rate - want) / want:.1e}, "
                  f"{elapsed:.2f}s")


def test_criterion_02_fermion_limit_rates():
    t0 = time.perf_counter()
    worst = 0.0
    for bw in (0.5, 1.0, 2.0):
        z = math.exp(-bw)
        n_f = 1.0 / (math.exp(bw) + 1.0)
        worst = max(worst, abs(gamma_stat(math.pi, z, 0.1) - 0.1 * n_f))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 0.1
    assert report(2, "fermion-limit rates", ok, f"worst |err|={worst:.1e}, {elapsed:.3f}s")


def test_criterion_03_phase_average_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 50):
        for z in np.linspace(0.0, 0.9, 50):
            worst = max(worst, abs(phase_average(theta, z) - phase_average_series(theta, z)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(3, "phase-average oracle", ok, f"worst |err|={worst:.1e}, {elapsed:.2f}s")


def test_criterion_04_xi_structure_of_weff():
    t0 = time.perf_counter()
    off_worst = diag_worst = multi_worst = 0.0
    for theta in (0.0, 0.9, 1.7, 2.6):
        w0 = build_weff(AnyonParams(theta=theta, xi=0.0))
        off_worst = max(off_worst, abs(w0.entries[0, 1]), abs(w0.entries[1, 0]))
        for xi in (-1.0, -0.5, 0.5, 1.0):
            w = build_weff(AnyonParams(theta=theta, xi=xi))
            diag_worst = max(diag_worst,
                             abs(w.entries[0, 0] - w0.entries[0, 0]),
                             abs(w.entries[1, 1] - w0.entries[1, 1]))
        for xi in (0.5, 1.0):
            lp = build_weff(AnyonParams(theta=theta, xi=xi)).eigenvalues
            lm = build_weff(AnyonParams(theta=theta, xi=-xi)).eigenvalues
            direct = max(abs(lp[0] - lm[0]), abs(lp[1] - lm[1]))
            swapped = max(abs(lp[0] - lm[1]), abs(lp[1] - lm[0]))
            multi_worst = max(multi_worst, min(direct, swapped))
    elapsed = time.perf_counter() - t0
    ok = off_worst <= 1e-14 and diag_worst <= 1e-12 and multi_worst <= 1e-12 and elapsed < 0.1
    assert report(4, "xi structure of W_eff", ok,
                  f"offdiag={off_worst:.1e}, diag={diag_worst:.1e}, multiset={multi_worst:.1e}, "
                  f"{elapsed:.3f}s")


def test_criterion_05_bifurcation_exceptional_point():
    t0 = time.perf_counter()
    ep1 = find_exceptional_point(AnyonParams(theta=0.0, xi=1.0, beta=1.0))
    ep0 = find_exceptional_point(AnyonParams(theta=0.0, xi=0.0, beta=1.0))
    elapsed = time.perf_counter() - t0
    ok = (ep1.found and 2.0 < ep1.theta < math.pi and ep1.gap < 1e-6 * 0.1
          and not ep0.found and elapsed < 1.0)
    assert report(5, "bifurcation / EP", ok,
                  f"theta*={ep1.theta:.4f}, gap={ep1.gap:.1e}, xi0 gap={ep0.gap:.1e}, "
                  f"{elapsed:.2f}s")


def test_criterion_06_dimer_oracle_equivalence():
    t0 = time.perf_counter()
    cutoff = 6
    system = FockSystem(cutoff=cutoff, theta=0.0, modes=2)
    q = system.total_quanta
    d = system.dim
    ket = np.repeat(q, d)
    bra = np.tile(q, d)
    idx = np.where(ket - bra == 1)[0]
    mask = np.zeros(d * d, bool)
    mask[idx] = True
    worst = 0.0
    for xi in (0.0, 0.5, -0.5, 1.0, -1.0):
        p = AnyonParams(theta=0.0, xi=xi)
        liouv = build_liouvillian(system, p, jump_basis="deformed")
        leak = np.linalg.norm(liouv[np.ix_(idx, np.where(~mask)[0])])
        assert leak <= 1e-12  # quanta-difference grading is exact
        evals = np.linalg.eigvals(liouv[np.ix_(idx, idx)])
        slow = evals[np.argsort(-evals.real)][:2]
        lw = build_weff(p).eigenvalues
        direct = max(abs(slow[0] - lw[0]) / abs(lw[0]), abs(slow[1] - lw[1]) / abs(lw[1]))
        swapped = max(abs(slow[0] - lw[1]) / abs(lw[1]), abs(slow[1] - lw[0]) / abs(lw[0]))
        worst = max(worst, min(direct, swapped))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 30.0
    assert report(6, "dimer oracle equivalence", ok,
                  f"worst rel err={worst:.1e} over xi set, {elapsed:.1f}s")


def _slice_metrics(theta, xi, n=128):
    p = AnyonParams(theta=theta, xi=xi)
    grid = rephasing_response(p, grid=GridSpec(count=n))
    det, vals = diagonal_slice(grid)
    return grid, det, vals, lineshape_metrics(det, vals)


def bright_branch_detuning(params):
    """Detuning of the dipole-dominant ("bright") effective mode.

    The vacuum dipole excitation (|10> + |01>)/sqrt2 has amplitudes
    ((1 + g)/2, (1 - g)/2) on the deformed modes b~+/- = (a1 +/- g a2)/sqrt2,
    with the same g = e^{-i theta/2} as the Fock Hamiltonian and jump
    operators; the bright branch is the eigenvector with the larger overlap
    against that excitation.
    """
    w = build_weff(params)
    g = deformed_mode_phase(params.theta)
    bright = np.array([(1.0 + g) / 2.0, (1.0 - g) / 2.0], dtype=complex)
    bright /= np.linalg.norm(bright)
    weights = [abs(np.vdot(w.right_eigenvectors[:, k], bright)) for k in range(2)]
    lam = w.eigenvalues[int(np.argmax(weights))]
    return -lam.imag - params.omega


def test_criterion_07_bright_mode_tracking():
    t0 = time.perf_counter()
    details = []
    oks = []
    for theta in (0.0, math.pi / 2):
        grid, det, vals, m = _slice_metrics(theta, 0.0, n=128)
        branch = bright_branch_detuning(AnyonParams(theta=theta, xi=0.0))
        peak_idx = int(np.argmax(np.abs(vals)))
        branch_idx = int(np.argmin(np.abs(det - branch)))
        oks.append(abs(peak_idx - branch_idx) <= 1)
        details.append(f"theta={theta:.3f}: peak={det[peak_idx]:+.4f} "
                       f"branch={branch:+.4f} didx={abs(peak_idx - branch_idx)}")
    elapsed = time.perf_counter() - t0
    ok = all(oks) and elapsed < 60.0
    assert report(7, "bright-mode tracking", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_08_lineshape_morphology():
    t0 = time.perf_counter()
    _, _, _, m00 = _slice_metrics(0.0, 0.0)
    absorptive_ok = m00.dispersiveness < 0.2
    disps = []
    for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
        _, _, _, m = _slice_metrics(math.pi / 2, xi)
        disps.append(m.dispersiveness)
    dispersive_ok = disps[-1] > 0.5
    monotone_ok = all(b >= a - 1e-12 for a, b in zip(disps, disps[1:]))
    elapsed = time.perf_counter() - t0
    ok = absorptive_ok and dispersive_ok and monotone_ok and elapsed < 300.0
    assert report(8, "lineshape morphology", ok,
                  f"disp(0,0)={m00.dispersiveness:.3f}, xi sweep="
                  f"{[round(x, 4) for x in disps]}, monotone={monotone_ok}, {elapsed:.1f}s")


def test_criterion_09_resolvent_vs_quadrature():
    t0 = time.perf_counter()
    theta, xi = 0.6, 0.5
    p = AnyonParams(theta=theta, xi=xi)
    system = FockSystem(cutoff=2, theta=theta, modes=2)
    dip = build_dipole(system)
    axis = np.linspace(-0.4, 0.4, 8)
    quad = rephasing_response_quadrature(system, dip, p, axis)
    direct = np.empty_like(quad)
    for i, wt in enumerate(axis):
        for j, wv in enumerate(axis):
            direct[i, j] = response_point(p, float(wt), float(wv))
    rel = float(np.max(np.abs(direct - quad)) / np.max(np.abs(direct)))
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-3 and elapsed < 60.0
    assert report(9, "resolvent vs quadrature", ok, f"rel err={rel:.1e}, {elapsed:.1f}s")


def test_criterion_10_determinism_across_threads():
    t0 = time.perf_counter()
    texts = {}
    for threads in (1, 8):
        cfg1 = RunConfig(params=AnyonParams(theta=0.0), threads=threads,
                         sweep=(SweepAxis("theta", 0.0, math.pi, 64),))
        cfg2 = RunConfig(params=AnyonParams(theta=0.0), threads=threads,
                         sweep=(SweepAxis("theta", 0.0, math.pi, 64),),
                         xi_list=(0.0, 1.0))
        cfg3 = RunConfig(params=AnyonParams(theta=0.0), threads=threads,
                         grid=GridSpec(count=16), theta_list=(0.0, 1.5), xi_list=(0.0,))
        texts[threads] = (csv_text(run_fig1(cfg1)), csv_text(run_fig2(cfg2)),
                          csv_text(run_fig3(cfg3)), csv_text(GENERATORS["fig3-overlay"](cfg3)))
    elapsed = time.perf_counter() - t0
    ok = texts[1] == texts[8]
    assert report(10, "determinism across threads", ok,
                  f"fig1/fig2/fig3 byte-identical={ok}, {elapsed:.1f}s")
