"""Running one op, checking what it wrote, and the post-run oracle checks.

Ops run in-process through ``anyonosc.cli.main`` (looked up at call time, so
the tracer's wrapper is used when installed), or, for fock-oracle, through
the library's public functions. Checks use references bound at import time,
so they stay outside any traced span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

import anyonosc
import anyonosc.cli
import anyonosc.dimer
import anyonosc.fock
import anyonosc.params
from anyonosc.output import read_csv, validate_metadata

LEAK_BOUND = 1e-12          # criterion 6: quanta-difference grading is exact
CRITERION6_BOUND = 1e-3     # criterion 6: slow dq=+1 eigenvalues vs W_eff
CRITERION9_BOUND = 1e-3     # criterion 9: quadrature vs resolvent
SWEEP_EIG_RTOL = 1e-6       # closed-form eigenvalues vs LAPACK, relative to ||W_eff||
QUADRATURE_DT = 0.05        # rephasing_response_quadrature's default step
QUADRATURE_MAX_ENTRIES = 4e6  # stored trajectory entries (64 MB of complex128)
_NONFINITE_SVG = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@dataclass
class Outcome:
    """What one op did: latency, failure reason (None when it passed) and
    the small samples kept for the oracle checks after the run."""

    index: int
    latency_s: float
    op: object = None
    error: str | None = None
    bytes: int = 0
    rows: int = 0
    digest: str = ""
    probe_s: float = 0.0
    sample: dict = field(default_factory=dict)


def clear_dir(path: str):
    for root, dirs, files in os.walk(path, topdown=False):
        for name in files:
            os.remove(os.path.join(root, name))
        for name in dirs:
            os.rmdir(os.path.join(root, name))


def run_op(op, workdir: str, hash_outputs: bool = False) -> Outcome:
    """Execute one op in ``workdir`` (cleared first), time it, check it."""
    clear_dir(workdir)
    for rel, text in op.files:
        with open(os.path.join(workdir, rel), "w", encoding="utf-8") as fh:
            fh.write(text)
    sink = io.StringIO()
    result = None
    error = None
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                if op.kind == "oracle":
                    result = fock_oracle(op.info)
                else:
                    rc = anyonosc.cli.main(list(op.argv))
                    if rc != 0:
                        error = f"exit {rc}"
            except Exception as exc:  # an op that raises is a failed op
                error = f"raised {type(exc).__name__}"
            latency = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    out = Outcome(op.index, latency, op)
    inputs = {rel for rel, _ in op.files}
    try:
        check = _check_oracle if op.kind == "oracle" else _check_files
        check_error = check(op, workdir, inputs, out, result)
    except Exception as exc:  # unreadable output is a failed op
        check_error = f"check raised {type(exc).__name__}: {exc}"
    out.error = "; ".join(e for e in (error, check_error) if e) or None
    if hash_outputs:
        out.digest = _digest(workdir, inputs, result)
    return out


# -- fock-oracle --------------------------------------------------------------

def fock_oracle(info: dict) -> dict:
    """One criterion-6 check: dense deformed-basis Liouvillian, leak out of
    the dq = +1 block, and the block's eigenvalues against W_eff's."""
    fock, dimer = anyonosc.fock, anyonosc.dimer
    p = anyonosc.params.AnyonParams(theta=info["theta"], xi=info["xi"], beta=info["beta"],
                                    gamma=info["gamma"], coupling_j=info["coupling_j"])
    system = fock.FockSystem(cutoff=info["cutoff"], theta=p.theta, modes=2)
    liouv = fock.build_liouvillian(system, p, jump_basis="deformed")
    q = system.total_quanta
    dq = np.repeat(q, system.dim) - np.tile(q, system.dim)
    inside = np.flatnonzero(dq == 1)
    outside = np.flatnonzero(dq != 1)
    leak = max(_frobenius(liouv[np.ix_(outside, inside)]),
               _frobenius(liouv[np.ix_(inside, outside)]))
    evals = np.linalg.eigvals(liouv[np.ix_(inside, inside)])
    # Each W_eff eigenvalue against the nearest block eigenvalue. Criterion 6
    # takes the block's two slowest instead; that holds at its parameters but
    # not when the W_eff rates differ by more than 3x, where the |2><1|
    # coherence of the slow mode (3x its rate) overtakes the fast mode.
    dev = max(float(np.min(np.abs(evals - lam))) / abs(lam)
              for lam in dimer.build_weff(p).eigenvalues)
    return {"leak": leak, "dev": dev, "block": int(inside.size),
            "finite": bool(np.isfinite(liouv).all() and np.isfinite(evals).all())}


def _frobenius(block) -> float:
    return float(np.sqrt(np.sum(block.real ** 2 + block.imag ** 2)))


def _check_oracle(op, _workdir, _inputs, out, result):
    if result is None:
        return None  # the op itself failed; its error is already recorded
    if not result["finite"]:
        return "non-finite Liouvillian or eigenvalues"
    if not result["leak"] <= LEAK_BOUND:
        return f"dq=+1 leak {result['leak']:.3g} > {LEAK_BOUND:g}"
    out.sample = {"theta": op.info["theta"], "dev": result["dev"]}
    if op.info["theta"] == 0.0 and not result["dev"] <= CRITERION6_BOUND:
        return f"criterion-6 deviation {result['dev']:.3g} > {CRITERION6_BOUND:g}"
    return None


# -- CLI outputs --------------------------------------------------------------

def _outputs(workdir: str, inputs: set) -> list:
    paths = []
    for root, _dirs, files in os.walk(workdir):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), workdir)
            if rel not in inputs:
                paths.append(rel)
    return sorted(paths)


def _reject_constant(token):
    raise ValueError(f"non-finite constant {token} in sidecar")


def _check_files(op, workdir, inputs, out, _result):
    """Every CSV parses back through output.read_csv and is finite, every
    sidecar passes output.validate_metadata, every SVG is free of nan/inf."""
    paths = _outputs(workdir, inputs)
    out.bytes = sum(os.path.getsize(os.path.join(workdir, p)) for p in paths)
    csvs = [p for p in paths if p.endswith(".csv")]
    if not csvs:
        return "no CSV written"
    tables = {}
    problems = []
    for rel in csvs:
        path = os.path.join(workdir, rel)
        columns, units, rows = read_csv(path)
        tables[os.path.basename(rel)] = (columns, rows)
        out.rows += len(rows)
        if not all(math.isfinite(v) for row in rows for v in row):
            problems.append(f"non-finite value in {os.path.basename(rel)}")
        sidecar = path + ".meta.json"
        if not os.path.exists(sidecar):
            problems.append(f"missing sidecar for {os.path.basename(rel)}")
            continue
        with open(sidecar, encoding="utf-8") as fh:
            validate_metadata(json.load(fh, parse_constant=_reject_constant))
    for rel in paths:
        if rel.endswith(".svg"):
            with open(os.path.join(workdir, rel), encoding="utf-8") as fh:
                svg = fh.read()
            if not svg.rstrip().endswith("</svg>") or _NONFINITE_SVG.search(svg):
                problems.append(f"non-finite or truncated {os.path.basename(rel)}")
    if problems:
        return "; ".join(problems)
    expected = op.info.get("rows")
    if op.kind == "spectrum":
        if "grid.svg" not in paths:
            return "no SVG written"
        expected = op.info["count"] ** 2
        columns, rows = tables["grid.csv"]
        n = op.info["count"]
        out.sample = {"axis": [rows[i * n][0] for i in op.info["subgrid"]],
                      "values": [[complex(rows[i * n + j][2], rows[i * n + j][3])
                                  for j in op.info["subgrid"]] for i in op.info["subgrid"]]}
    elif op.kind == "fig3":
        columns, rows = tables["fig3_slices.csv"]
        if len(rows) != op.info["count"]:
            return f"fig3 slices have {len(rows)} rows, expected {op.info['count']}"
        out.sample = {"axis": [rows[i][2] for i in op.info["subgrid"]],
                      "values": [complex(rows[i][3], rows[i][4]) for i in op.info["subgrid"]]}
        return None
    elif op.kind == "sweep":
        columns, rows = tables["out.csv"]
        out.sample = {"columns": columns,
                      "rows": [rows[i] for i in op.info["sample_rows"]]}
    if expected is not None and out.rows != expected:
        return f"{out.rows} rows, expected {expected}"
    return None


def _digest(workdir: str, inputs: set, result) -> str:
    """Hash of everything an op wrote; sidecar creation timestamps removed."""
    h = hashlib.sha256()
    if result is not None:
        h.update(json.dumps(result, sort_keys=True).encode())
    for rel in _outputs(workdir, inputs):
        with open(os.path.join(workdir, rel), "rb") as fh:
            data = fh.read()
        if rel.endswith(".meta.json"):
            doc = json.loads(data)
            doc.pop("created", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(rel.encode() + b"\0" + data)
    return h.hexdigest()


# -- oracle spot checks after the timed phase ----------------------------------

def quadrature_check(op, sample: dict) -> dict:
    """Criterion-9 oracle on the op's sub-grid: Simpson quadrature of
    the time-domain interval integrals against the written resolvent values.

    The quadrature horizon is stretched to the slowest decay of the rotating
    Liouvillian so the truncated integral converges. The oracle applies only
    when every non-stationary mode decays; otherwise it is reported as not
    applicable rather than as a failure of the program.
    """
    from anyonosc.spectra import build_dipole, rephasing_response_quadrature

    info = op.info
    conv = info["conventions"]
    p = anyonosc.params.AnyonParams(theta=info["theta"], xi=info["xi"])
    system = anyonosc.fock.FockSystem(cutoff=info["cutoff"], theta=p.theta, modes=2)
    liouv = anyonosc.fock.build_liouvillian(system, p, conv["jump_basis"], conv["conjugation"],
                                            rotating=True)
    evals = np.linalg.eigvals(liouv)
    moving = evals[np.abs(evals) > 1e-8]
    slowest = float(-moving.real.max())
    if slowest <= 1e-9:
        return {"status": "n/a", "why": f"non-decaying mode (max Re = {-slowest:.3g})"}
    horizon = math.log(1e8) / slowest
    if horizon / QUADRATURE_DT * system.dim ** 2 > QUADRATURE_MAX_ENTRIES:
        return {"status": "n/a", "why": f"decay too slow for quadrature ({slowest:.3g})"}
    dip = build_dipole(system, conv["conjugation"])
    axis = np.array(sample["axis"])
    quad = rephasing_response_quadrature(system, dip, p, axis, t2=info["t2"],
                                         jump_basis=conv["jump_basis"],
                                         conjugation=conv["conjugation"],
                                         horizon_factor=max(20.0, horizon * p.gamma))
    written = np.array(sample["values"])
    if written.ndim == 1:           # fig3 writes only the diagonal slice
        quad = np.diagonal(quad)
    rel = float(np.max(np.abs(written - quad)) / np.max(np.abs(written)))
    return {"status": "pass" if rel <= CRITERION9_BOUND else "FAIL", "rel_err": rel}


def sweep_eig_check(sample: dict, config: dict) -> dict:
    """Sampled sweep rows against numpy.linalg.eigvals of the rebuilt W_eff."""
    columns = list(sample["columns"])
    conv = config["conventions"]
    names = [ax["name"] for ax in config["sweep"]]
    worst = 0.0
    for row in sample["rows"]:
        values = dict(config["params"])
        values.update({n: row[columns.index(n)] for n in names})
        p = anyonosc.params.AnyonParams(**values)
        w = anyonosc.dimer.build_weff(p, conv["frequency"], conv["conjugation"],
                                      conv["stat_dephasing"])
        ref = np.linalg.eigvals(w.entries)
        got = [complex(row[columns.index("re_lambda_plus")], row[columns.index("im_lambda_plus")]),
               complex(row[columns.index("re_lambda_minus")], row[columns.index("im_lambda_minus")])]
        err = min(max(abs(ref[0] - got[0]), abs(ref[1] - got[1])),
                  max(abs(ref[0] - got[1]), abs(ref[1] - got[0])))
        worst = max(worst, err / max(1.0, float(np.linalg.norm(w.entries))))
    return {"status": "pass" if worst <= SWEEP_EIG_RTOL else "FAIL", "rel_err": worst,
            "rows": len(sample["rows"])}
