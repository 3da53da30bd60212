"""Seeded input generation for the four workloads.

Pure Python (no numpy, no anyonosc import) so that run.py and the
self-tests can draw inputs without loading the program. ``ops(workload, seed)``
yields an endless, reproducible sequence of ``Op`` records; op 0 is the cold
op that set-up time covers, ops 1.. are the timed closed loop.

Timed grid counts are even. An odd count hits the known singular-resolvent
defect (NaN spectra, or exit 1 from fig3), and a timed workload must not
have failing ops: how many fail would depend on how many ops fit in the
time. ``defect_op`` gives one seeded odd-count op per run instead; the
workload process runs it after the timed phase and reports what it wrote.

Stratification keeps run-to-run medians steady: sizes (grid counts, sweep
points) come in blocks that cover their range evenly; closed-form cycles
through a fixed command pattern; fock-oracle alternates theta = 0 and drawn
theta.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("grid-export", "fig3-c3", "closed-form", "fock-oracle")

# Slope of log(op time) against log(probe time) across runs: how strongly a
# workload follows the host's speed phases (8 runs each, 2-vCPU Intel Xeon VM).
PHASE_SENSITIVITY = {"grid-export": 0.8, "fig3-c3": 0.4, "closed-form": 0.8, "fock-oracle": 0.4}

# closed-form command cycle: the cold op is a fixed-size fig2 and the median
# op falls inside the fig2 class; each cycle's three sweeps are one small, one
# medium and one large, so every cycle carries nearly the same work.
CLOSED_FORM_CYCLE = ("fig2", "sweep", "dimer-rates", "sweep", "ep-locate", "fig2", "sweep")

SWEEP_RANGES = {
    "theta": (0.0, math.pi),
    "xi": (-1.0, 1.0),
    "beta": (0.2, 5.0),
    "coupling_j": (0.0, 0.5),
    "gamma": (0.01, 0.3),
}


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv (run in the op directory) or an oracle check."""

    index: int
    kind: str                       # CLI command name, or "oracle"
    argv: tuple = ()
    files: tuple = ()               # ((relative path, text), ...) written before the op
    info: dict = field(default_factory=dict)


def _conventions(rng: random.Random) -> dict:
    return {
        "frequency": rng.choice(("appendix", "maintext")),
        "conjugation": rng.choice(("modulus", "analytic")),
        "jump_basis": rng.choice(("site", "deformed")),
        "stat_dephasing": rng.random() < 0.5,
    }


def _convention_flags(conv: dict) -> list:
    return ["--convention", conv["frequency"], "--conjugation", conv["conjugation"],
            "--jump-basis", conv["jump_basis"],
            "--stat-dephasing", "on" if conv["stat_dephasing"] else "off"]


def _strata(rng: random.Random, values: list, block: int = 8):
    """Endless draws from ``values`` in blocks: each block of ``block`` draws
    takes one value from each of ``block`` equal slices of ``values``, in
    shuffled order, so every run sees nearly the same size distribution."""
    cuts = [round(i * len(values) / block) for i in range(block + 1)]
    while True:
        picks = [rng.choice(values[a:b]) for a, b in zip(cuts, cuts[1:])]
        rng.shuffle(picks)
        yield from picks


def _counts(rng: random.Random, lo: int, hi: int, parity: int):
    """Grid counts in [lo, hi] of the given parity."""
    return _strata(rng, [n for n in range(lo, hi + 1) if n % 2 == parity])


def _t2(rng: random.Random) -> float:
    return 0.0 if rng.random() < 0.5 else rng.uniform(0.5, 20.0)


def _subgrid(rng: random.Random, n: int, k: int = 3) -> list:
    return sorted(rng.sample(range(n), k))


def _fmt(x: float) -> str:
    return repr(float(x))


def _grid_export(rng: random.Random, parity: int = 0):
    for k, n in enumerate(_counts(rng, 240, 272, parity)):
        theta, xi, t2 = rng.uniform(0.0, math.pi), rng.uniform(-1.0, 1.0), _t2(rng)
        conv = _conventions(rng)
        argv = ["spectrum", "--cutoff", "2", "--grid", str(n), "--theta", _fmt(theta),
                "--xi", _fmt(xi), "--t2", _fmt(t2), *_convention_flags(conv),
                "--threads", "1", "--out", "grid.csv", "--svg", "grid.svg"]
        info = {"count": n, "theta": theta, "xi": xi, "t2": t2, "cutoff": 2,
                "conventions": conv, "subgrid": _subgrid(rng, n)}
        yield Op(k, "spectrum", tuple(argv), (), info)


def _fig3(rng: random.Random, parity: int = 0):
    for k, n in enumerate(_counts(rng, 112, 144, parity)):
        theta, xi, t2 = rng.uniform(0.0, math.pi), rng.uniform(-1.0, 1.0), _t2(rng)
        argv = ["fig3", "--cutoff", "3", "--grid", str(n), "--theta-list", _fmt(theta),
                "--xi-list", _fmt(xi), "--t2", _fmt(t2), "--threads", "1", "--out", "fig3"]
        info = {"count": n, "theta": theta, "xi": xi, "t2": t2, "cutoff": 3,
                "conventions": {"frequency": "appendix", "conjugation": "modulus",
                                "jump_basis": "site", "stat_dephasing": False},
                "subgrid": _subgrid(rng, n)}
        yield Op(k, "fig3", tuple(argv), (), info)


def _sweep_shape(rng: random.Random, points: int) -> tuple:
    """Two axis counts in [40, 80] whose product is close to ``points``."""
    c1 = rng.randint(max(40, -(-points // 80)), min(80, points // 40))
    return c1, min(80, max(40, round(points / c1)))


def _closed_form(rng: random.Random):
    sizes = _strata(rng, list(range(40 * 40, 80 * 80 + 1)), CLOSED_FORM_CYCLE.count("sweep"))
    for k in itertools.count():
        kind = CLOSED_FORM_CYCLE[k % len(CLOSED_FORM_CYCLE)]
        conv = _conventions(rng)
        beta, gamma = rng.uniform(0.5, 3.0), rng.uniform(0.05, 0.2)
        coupling, xi = rng.uniform(0.1, 0.4), rng.uniform(-1.0, 1.0)
        common = ["--threads", "1", "--out", "out.csv"]
        if kind == "sweep":
            names = rng.sample(sorted(SWEEP_RANGES), 2)
            counts = _sweep_shape(rng, next(sizes))
            axes = [{"name": name, "start": SWEEP_RANGES[name][0],
                     "stop": SWEEP_RANGES[name][1], "count": c}
                    for name, c in zip(names, counts)]
            params = {"theta": rng.uniform(0.0, math.pi), "xi": xi, "beta": beta,
                      "gamma": gamma, "coupling_j": coupling}
            doc = {"params": params, "sweep": axes, "conventions": conv}
            text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
            rows = counts[0] * counts[1]
            info = {"rows": rows, "config": doc,
                    "sample_rows": sorted(rng.sample(range(rows), 3))}
            yield Op(k, "sweep", ("sweep", "--config", "run.json", *common),
                     (("run.json", text),), info)
        elif kind == "fig2":
            temp = rng.choice(("low", "high"))
            argv = ["fig2", "--temp", temp, "--gamma", _fmt(gamma), "--coupling", _fmt(coupling),
                    *_convention_flags(conv), *common]
            yield Op(k, "fig2", tuple(argv), (), {"rows": 201 * 5})
        else:
            flags = ["--xi", _fmt(xi), "--beta", _fmt(beta), "--gamma", _fmt(gamma),
                     "--coupling", _fmt(coupling), *_convention_flags(conv)]
            yield Op(k, kind, (kind, *flags, *common), (),
                     {"rows": 201 if kind == "dimer-rates" else 1})


def _fock_oracle(rng: random.Random):
    for k in itertools.count():
        theta = 0.0 if k % 2 == 0 else rng.uniform(0.0, math.pi)
        info = {"theta": theta, "xi": rng.uniform(-1.0, 1.0), "beta": rng.uniform(0.5, 3.0),
                "gamma": rng.uniform(0.05, 0.2), "coupling_j": rng.uniform(0.1, 0.4),
                "cutoff": 6}
        yield Op(k, "oracle", (), (), info)


_MAKERS = {"grid-export": _grid_export, "fig3-c3": _fig3,
           "closed-form": _closed_form, "fock-oracle": _fock_oracle}


def ops(workload: str, seed: int):
    """Endless reproducible op sequence for a workload and seed."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _MAKERS[workload](random.Random(f"perfbench:{workload}:{seed}"))


def defect_op(workload: str, seed: int):
    """One seeded odd-grid-count op for a grid workload (None for the
    others): it shows whether the odd-count defect is still there."""
    if workload not in ("grid-export", "fig3-c3"):
        return None
    return next(_MAKERS[workload](random.Random(f"perfbench-defect:{workload}:{seed}"), 1))
