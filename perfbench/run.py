"""anyonosc benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload process is a fresh Python
interpreter (``worker.py``) that imports ``anyonosc`` from ``./src``, with
one BLAS thread pinned through its environment and ``--threads 1`` on every
CLI call; the ``--threads N`` pool path is not part of the traffic. One
client runs ops back to back (closed loop).

``--trace 0`` measures the end-to-end metrics: two set-up-only processes and
the timed process give three set-up samples (interpreter start, ``import
anyonosc``, input generation, cold op), then the timed process loops for
``--seconds``. ``--trace 1`` runs one process that measures an untraced
phase and a traced replay of the same ops, and reports per-layer metrics.

The report goes to stdout; its last line is the JSON result. Metric names
and units come from BENCHMARK.json next to the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import subprocess
import sys
import time

from inputs import PHASE_SENSITIVITY, WORKLOADS
from probe import REFERENCE_S, scaled
from stats import median, tail

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# One BLAS thread: single-threaded runs are the steadier ones on a small box.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Worker:
    """One workload process, read line by line until a deadline."""

    def __init__(self, root, args, mode, workdir, deadline):
        env = dict(os.environ, **PINNED_ENV, PYTHONPATH=os.path.join(root, "src"))
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
             "--workdir", workdir],
            cwd=root, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)

    def expect(self, tag: str) -> dict:
        while True:
            left = self.deadline - time.monotonic()
            if left <= 0 or not self.sel.select(timeout=left):
                raise BenchError(f"timed out waiting for {tag}")
            line = self.proc.stdout.readline().decode()
            if not line:
                raise BenchError(f"worker exited (code {self.proc.wait()}) before {tag}")
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.sel.close()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")


def run_worker(root, args, mode, workdir, deadline):
    w = Worker(root, args, mode, workdir, deadline)
    try:
        w.expect("READY")
        ready_s = time.perf_counter() - w.started
        ready_probe = w.expect("PROBE")["probe_s"]
        result = w.expect("RESULT") if mode != "setup" else None
    except BaseException:
        if w.proc.poll() is None:
            w.proc.kill()
        raise
    finally:
        w.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return (ready_s, ready_probe), result


def measure(root: str, args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(root, ".perfbench-run")
    workdir = lambda k: os.path.join(scratch, f"{args.workload}-{os.getpid()}-{k}")  # noqa: E731
    if args.trace:
        sample, result = run_worker(root, args, "trace", workdir(0), deadline)
        return [sample], result
    setups = [run_worker(root, args, "setup", workdir(k), deadline)[0]
              for k in range(SETUP_SAMPLES - 1)]
    sample, result = run_worker(root, args, "timed", workdir(SETUP_SAMPLES), deadline)
    return setups + [sample], result


def report(args, spec, setups, res) -> dict:
    """Print the report and return the JSON result. Times are put on the
    probe's reference scale (see probe.py); raw wall times are printed too."""
    raw = res["latencies"]
    if not raw:
        raise BenchError("no op completed in the timed phase")
    alpha = PHASE_SENSITIVITY[args.workload]
    lat = scaled(raw, res["probes"], alpha)
    setup = scaled([t for t, _ in setups], [median([p for _, p in setups])] * len(setups), alpha)
    errors = [res["cold_error"]] + res["errors"] + res.get("traced_errors", [])
    attempted = len(errors)
    failed = sum(e is not None for e in errors)
    tl = tail(lat)
    end_to_end = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": median(lat),
        "op_tail_s": tl["value"],
        "setup_s": median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wall = {"ops_per_s": len(raw) / sum(raw), "op_p50_s": median(raw),
            "op_tail_s": tail(raw)["value"], "setup_s": median([t for t, _ in setups])}
    # "known-defect" is the odd-grid defect check: reported, not a wrong output
    # of the timed traffic.
    checks_ok = all(c["status"] in ("pass", "n/a", "measured", "known-defect")
                    for c in res["spot_checks"])
    checks_ok = checks_ok and not res.get("byte_mismatch_ops")

    env = res["env"]
    out = print
    out(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    out("env: " + " ".join(f"{k}={env[k]}" for k in sorted(env)))
    out("traffic: one client, closed loop, CLI --threads 1 (pool path not exercised)")
    out(f"ops: {len(lat)} timed + 1 cold; attempted {attempted}, failed {failed} "
        f"(fail_frac {failed / attempted:.4f})")
    reasons = {}
    for e in errors:
        if e is not None:
            reasons[e] = reasons.get(e, 0) + 1
    for reason, count in sorted(reasons.items()):
        out(f"  failed x{count}: {reason}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    notes = {"op_tail_s": f"p{tl['percentile']:.1f} of n={tl['n']}, {tl['beyond']} beyond",
             "setup_s": f"median of {len(setup)} fresh processes",
             "ops_per_s": "timed ops / summed op latency"}
    if not args.trace:
        out(f"  {'metric':<14}{'value':>12} {'unit':<5} {'raw wall':>10}  (times scaled to the "
            f"reference probe {REFERENCE_S * 1e3:.1f} ms with sensitivity {alpha}; median probe "
            f"{median(res['probes']) * 1e3:.2f} ms)")
        for name, value in end_to_end.items():
            w = f"{wall[name]:>10.4g}" if name in wall else " " * 10
            out(f"  {name:<14}{value:>12.6g} {units[name]:<5} {w}  {notes.get(name, '')}")
        out(f"  {'fail_frac':<14}{failed / attempted:>12.6g} {'1':<5} {'':>10}  "
            "in the result's attempted/failed; not a JSON metric, being 0 when all ops pass")
    for c in res["spot_checks"]:
        out("check: " + ", ".join(f"{k}={v}" for k, v in c.items()))
    if args.trace:
        out(f"traced replay: {res['traced_ops']} ops, byte-identical to untraced: "
            f"{not res['byte_mismatch_ops']}; spans in {os.path.relpath(res['trace_file'])}")
        layers = res["layers"]
        for name in sorted(layers):
            value, unit = layers[name]
            out(f"  {name:<40}{value:>14.6g} {unit}")
        metrics = {m["name"]: {"value": layers[m["name"]][0], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": bool(checks_ok), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "anyonosc", "__init__.py")):
        print("perfbench: no src/anyonosc under the working directory; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = load_spec(root)
    try:
        setups, res = measure(root, args)
        doc = report(args, spec, setups, res)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
