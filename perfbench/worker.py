"""One workload process: set-up (import, inputs, cold op), then a closed loop.

Run by ``run.py``; talks to it through stdout lines: ``READY {...}`` once
the cold op is done, ``PROBE {...}`` with a speed-probe time taken right
after it, and ``RESULT {...}`` at the end. Modes:

- ``setup``: import, draw inputs, run the cold op, report, exit.
- ``timed``: set-up, then ops back to back for ``--seconds`` (one client,
  closed loop), then the oracle spot checks.
- ``trace``: set-up, an untraced phase for half the time, then the same ops
  again with the tracer installed for the other half; reports per-layer
  metrics, the tracing overhead and whether both phases wrote identical bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time

import anyonosc
import inputs
import ops
from probe import Probe, scaled
from stats import median
from tracer import Tracer


def emit(tag: str, doc: dict):
    sys.stdout.write(f"{tag} {json.dumps(doc, sort_keys=True)}\n")
    sys.stdout.flush()


def _read(path: str) -> str:
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: the vendor is reported as unknown
        pass
    git_sha = _read(os.path.join(".git", "HEAD")) or "unavailable (not a git checkout)"
    if git_sha.startswith("ref: "):
        git_sha = _read(os.path.join(".git", git_sha[5:])) or git_sha
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_sha": git_sha,
        "seed": seed,
        "cli_threads": 1,
    }


def loop(todo, workdir, seconds, probe, hash_outputs=False, on_op=None):
    """Closed loop: the next op starts when the previous one (and its check)
    is done. A speed probe runs between ops; each op gets the mean of the
    probes on either side of it."""
    outcomes = []
    start = time.perf_counter()
    before = probe()
    for op in todo:
        if time.perf_counter() - start >= seconds:
            break
        if on_op is not None:
            on_op(op)
        gc.collect()  # a fresh CLI process starts with an empty heap
        out = ops.run_op(op, workdir, hash_outputs)
        after = probe()
        out.probe_s = 0.5 * (before + after)
        before = after
        outcomes.append(out)
    return outcomes


def defect_check(workload: str, seed: int, workdir: str) -> dict:
    """One untimed odd-grid-count op: reports whether the known defect is
    still there. It is outside the timed traffic and the failed count."""
    op = inputs.defect_op(workload, seed)
    out = ops.run_op(op, workdir)
    return {"check": "odd-grid defect (untimed)", "grid": op.info["count"],
            "status": "known-defect" if out.error else "pass",
            "outcome": out.error or "finite output"}


def spot_checks(workload: str, seed: int, outcomes: list, workdir: str) -> list:
    """Oracle checks on a seeded subset of the ops that passed, and the
    odd-grid defect check on the grid workloads."""
    rng = random.Random(f"perfbench-spot:{workload}:{seed}")
    passed = [o for o in outcomes if o.error is None and o.sample]
    rng.shuffle(passed)
    results = []
    if workload in ("grid-export", "fig3-c3"):
        for o in passed[:4]:
            res = ops.quadrature_check(o.op, o.sample)
            results.append({"check": "quadrature", "op": o.index, **res})
            if res["status"] != "n/a":
                break
        results.append(defect_check(workload, seed, workdir))
    elif workload == "closed-form":
        for o in [o for o in passed if o.op.kind == "sweep"][:3]:
            res = ops.sweep_eig_check(o.sample, o.op.info["config"])
            results.append({"check": "sweep-eigvals", "op": o.index, **res})
    elif workload == "fock-oracle":
        devs = [o.sample["dev"] for o in outcomes if o.sample and o.sample["theta"] != 0.0]
        if devs:
            results.append({"check": "theta!=0 W_eff deviation (measured, not asserted)",
                            "status": "measured", "ops": len(devs),
                            "median": median(devs), "min": min(devs), "max": max(devs)})
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src", "anyonosc"))
    if os.path.dirname(os.path.realpath(anyonosc.__file__)) != src:
        print(f"perfbench: anyonosc imported from {anyonosc.__file__}, not {src}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    seq = inputs.ops(args.workload, args.seed)
    cold = ops.run_op(next(seq), args.workdir)
    emit("READY", {"cold_latency_s": cold.latency_s})
    probe = Probe()
    emit("PROBE", {"probe_s": probe()})
    if args.mode == "setup":
        return 0

    doc = {"env": environment(args.seed), "cold_error": cold.error}
    if args.mode == "timed":
        outcomes = loop(seq, args.workdir, args.seconds, probe)
        doc.update(_timings(outcomes))
    else:
        doc.update(traced_run(args, seq, probe))
        outcomes = doc.pop("outcomes")
    # peak of the workload itself, before the oracle checks allocate their own
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc["spot_checks"] = spot_checks(args.workload, args.seed, outcomes, args.workdir)
    emit("RESULT", doc)
    return 0


def _timings(outcomes: list, prefix: str = "") -> dict:
    return {prefix + "latencies": [o.latency_s for o in outcomes],
            prefix + "probes": [o.probe_s for o in outcomes],
            prefix + "errors": [o.error for o in outcomes]}


def traced_run(args, seq, probe) -> dict:
    half = args.seconds / 2.0
    plain = loop(seq, args.workdir, half, probe, hash_outputs=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = loop([o.op for o in plain], args.workdir, half, probe, hash_outputs=True,
                      on_op=lambda op: setattr(tracer, "op", op.index))
    finally:
        tracer.uninstall()
    m = len(traced)
    wall_traced = sum(o.latency_s for o in traced)
    layers = tracer.summary(m, wall_traced)
    alpha = inputs.PHASE_SENSITIVITY[args.workload]
    cost = [sum(scaled([o.latency_s for o in outs], [o.probe_s for o in outs], alpha))
            for outs in (plain[:m], traced)]
    overhead = 1.0 - cost[0] / cost[1] if m else 0.0
    layers["trace.overhead_frac"] = (overhead, "1")
    layers["output.bytes"] = (sum(o.bytes for o in traced) / max(m, 1), "B")
    layers["output.rows"] = (sum(o.rows for o in traced) / max(m, 1), "count")
    trace_path = os.path.join(os.path.dirname(args.workdir), f"trace-{args.workload}.npz")
    tracer.save(trace_path)
    return {"outcomes": plain, **_timings(plain), **_timings(traced, "traced_"),
            "traced_ops": m, "layers": layers, "trace_file": trace_path,
            "byte_mismatch_ops": [o.index for o, t in zip(plain, traced) if o.digest != t.digest]}


if __name__ == "__main__":
    sys.exit(main())
