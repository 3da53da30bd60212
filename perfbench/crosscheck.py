"""Re-measure the hand-timed baseline table of ROADMAP direction 1.

    python3 perfbench/crosscheck.py

Run from the repository root. Times each named size warm (median of three
runs, one BLAS thread, ``--threads 1`` unless stated), takes call counts and
busy times from one traced run, and flags every figure that differs from the
ROADMAP value by more than 2x.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import anyonosc  # noqa: E402
from anyonosc import AnyonParams, FockSystem, GridSpec  # noqa: E402
from anyonosc.sweeps import RunConfig, SweepAxis  # noqa: E402
from tracer import Tracer  # noqa: E402

SCRATCH = os.path.join(os.getcwd(), ".perfbench-run", "crosscheck")


def timed(fn, repeats=3):
    fn()  # warm
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def traced(fn):
    with Tracer() as t:
        fn()
    return t


def spectrum(cutoff, n=256):
    def go():
        p = AnyonParams(theta=0.785, xi=0.5)
        system = FockSystem(cutoff=cutoff, theta=p.theta, modes=2)
        anyonosc.spectra.rephasing_response(system, anyonosc.spectra.build_dipole(system), p,
                                            grid=GridSpec(count=n))
    return go


def sweep(threads):
    cfg = RunConfig(params=AnyonParams(theta=0.0), threads=threads,
                    sweep=(SweepAxis("theta", 0.0, np.pi, 253), SweepAxis("xi", -1.0, 1.0, 87)))
    return lambda: anyonosc.sweeps.run_sweep(cfg)


def cli(*argv):
    def go():
        with contextlib.redirect_stderr(io.StringIO()):
            anyonosc.cli.main(list(argv))
    return go


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    fig2_out = os.path.join(SCRATCH, "fig2.csv")
    c2 = traced(spectrum(2))
    lu = c2.names.index("linalg.lu_factor")
    rows = [
        ("spectrum, cutoff 2, N=256 (rephasing_response)", 0.22, timed(spectrum(2))),
        ("spectrum, cutoff 3, N=256 (rephasing_response)", 1.47, timed(spectrum(3), 1)),
        (f"{c2.calls[lu]} LU factorizations (cutoff 2, traced busy)", 0.094, c2.busy[lu]),
        ("65k np.dot contraction (cutoff 2, spectra self time, traced)", 0.041,
         c2.layer_self[c2.name_layer[c2.names.index("spectra.rephasing_response")]]),
        ("dense 2401^2 Liouvillian build (cutoff 6)", 1.9, timed(lambda: anyonosc.fock.build_liouvillian(
            FockSystem(cutoff=6, theta=0.0, modes=2), AnyonParams(theta=0.0, xi=0.5),
            jump_basis="deformed"), 1)),
        ("22,011-point sweep (253 x 87), threads=1", 1.9, timed(sweep(1), 1)),
        ("22,011-point sweep (253 x 87), threads=2 (pool path)", 2.8, timed(sweep(2), 1)),
        ("fig2 (CLI, --out)", 0.09, timed(cli("fig2", "--out", fig2_out))),
        ("find_exceptional_point", 0.04, timed(
            lambda: anyonosc.dimer.find_exceptional_point(AnyonParams(theta=0.0, xi=1.0)))),
    ]
    print(f"{'ROADMAP direction-1 item':<64}{'ROADMAP s':>10}{'now s':>10}{'ratio':>8}")
    for label, ref, now in rows:
        ratio = now / ref
        flag = "  <-- differs by more than 2x" if not 0.5 <= ratio <= 2.0 else ""
        print(f"{label:<64}{ref:>10.3f}{now:>10.3f}{ratio:>8.2f}{flag}")
    print(f"lu_factor calls at cutoff 2, N=256: {c2.calls[lu]} (ROADMAP: 512)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
