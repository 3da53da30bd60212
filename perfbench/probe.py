"""Machine-speed probe used to put op times on a common scale.

On a shared host the whole machine runs in slow phases that last from
seconds to minutes: on a 2-vCPU Intel Xeon VM this probe takes 3.2 ms in a
fast phase and 4.9 ms in a slow one, so raw medians of two runs of the same
code can differ by 1.5x. The benchmark times this fixed kernel between ops
and scales each op time by ``(REFERENCE_S / p) ** alpha``, where ``p`` is
the median probe over the ops around it and ``alpha`` is the workload's
phase sensitivity (``inputs.PHASE_SENSITIVITY``): interpreter-bound ops slow
down almost as much as the probe, dense-kernel ops about half as much in
log terms. The kernel is benchmark code, so every commit is measured with
the same yardstick; raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import time

from stats import median

# Probe time between ops in a fast phase on a 2-vCPU Intel Xeon VM (one BLAS
# thread); scaled times are wall times at that speed.
REFERENCE_S = 4.0e-3
WINDOW = 5      # probes on each side of an op that set its speed estimate


class Probe:
    """The fixed kernel and its inputs, built once before any tracer runs."""

    def __init__(self):
        import numpy as np
        from scipy.linalg import lu_factor

        rng = np.random.default_rng(0)
        self._lu_factor = lu_factor
        self.lu = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))

    def _pass(self) -> float:
        start = time.perf_counter()
        for _ in range(8):
            self._lu_factor(self.lu)
        total = 0
        for i in range(20000):
            total += i * i
        for i in range(2000):
            format(i * 0.1234567, ".17g")
        return time.perf_counter() - start

    def __call__(self, passes: int = 3) -> float:
        """Seconds for one pass of the BLAS + bytecode kernel: the
        fastest of ``passes`` runs, so caches an op left cold do not count."""
        return min(self._pass() for _ in range(passes))


def scaled(times: list, probes: list, alpha: float) -> list:
    """Op times on the reference scale; ``probes[i]`` was taken around op i."""
    return [t * (REFERENCE_S / median(probes[max(0, i - WINDOW):i + WINDOW + 1])) ** alpha
            for i, t in enumerate(times)]
