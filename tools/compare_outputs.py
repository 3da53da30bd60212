"""Run the same anyonosc commands on two source trees and compare what they write.

    python tools/compare_outputs.py TREE_A TREE_B [--draws N] [--seed S]

TREE_A and TREE_B are checkouts of this repository (each with ``src/anyonosc``).
The commands are every line of TREE_A's README ``## CLI`` block, with its
config-schema block as ``run.json``, then ``--draws`` seeded calls: every fifth
one of ``fig2``, ``dimer-rates``, ``ep-locate`` or ``single-rates`` (one in ten of
these at gamma 1e300 or 1.7e308, where the W_eff entries are finite or overflow),
every fifth a ``sweep --config`` of its own drawn ``run.json`` (1-3 axes over
the six parameters, one in ten holding a point the parameter check refuses),
the rest ``spectrum`` and ``fig3``. Each tree runs all of them through
``anyonosc.cli.main`` in one Python process of its own (``PYTHONPATH`` its
``src``, one BLAS thread, no bytecode written), each command in an empty
directory.

Per command it compares the exit code, stdout and stderr; per file written,
the bytes (a sidecar with its ``created`` line removed). A CSV that differs
gets the worst relative deviation of each numeric column, max |a - b| / max |a|
over the rows, and, where it has ``re`` and ``im`` columns, that of re + i im.
An SVG heatmap that differs gets the number of its cells whose fill changed and
the largest step between their palette levels (read from its colour bar).
Mismatches are printed one per line; the last line is a JSON summary. The
exit status is 0 when every stream and file matches, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

import numpy as np

CREATED = re.compile(rb'\n *"created": "[^"]*",')


def _readme_block(text: str, heading: str, lang: str) -> str:
    """The first ``lang`` code block after the README line ``heading``."""
    rest = text[text.index(f"\n{heading}\n"):]
    return re.search(rf"^```{lang}\n(.*?)^```", rest, re.S | re.M).group(1)


def readme_commands(tree: str) -> tuple[list, str]:
    """(argv list, run.json text) from the README of ``tree``."""
    with open(os.path.join(tree, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    lines = _readme_block(text, "## CLI", "sh").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.strip()]
    return commands, _readme_block(text, "### Config schema (`sweep --config`)", "json")


def _f(x: float) -> str:
    return repr(float(x))


SWEEP_RANGES = {"theta": (0.0, math.pi), "xi": (-1.0, 1.0), "omega": (0.5, 2.0),
                "coupling_j": (-0.5, 0.5), "gamma": (0.01, 2.0), "beta": (0.05, 20.0)}
# per checked parameter, an axis end the check refuses (beta's puts beta*omega
# below the floor)
SWEEP_INVALID = {"theta": (-0.2, 3.5), "xi": (-1.5, 1.25), "omega": (-0.5, 0.0),
                 "gamma": (-0.1, -1.0), "beta": (1e-12, 0.0)}


def seeded_commands(draws: int, seed: int) -> list:
    """``draws`` (argv, run.json text or None) pairs: command k is a
    closed-form one where k % 5 == 4, a sweep where k % 5 == 2, else fig3
    where k % 4 == 3, else spectrum.

    theta is 0 or pi on a fifth of draws, else uniform on [0, pi]; xi is -1, 0
    or 1 on 30%, else uniform on [-1, 1]; beta and gamma are log-uniform on
    [0.05, 20] and [0.01, 2]; J is uniform on [0.05, 0.5]; the grid count is
    uniform on 2..64 (odd and even). A spectrum or fig3 has t2 0 on 40%, else
    uniform on [0, 20], either jump basis and conjugation, and writes SVGs on a
    quarter of draws. A closed-form command (``closed_form``) is fig2,
    dimer-rates, ep-locate or single-rates with omega uniform on [0.5, 2] and
    the flags it defines; every tenth one (k % 50 == 49) takes gamma 1e300 or
    1.7e308 in place of the drawn one. A sweep (``sweep``) draws its run.json.
    """
    rng = random.Random(seed)

    def theta():
        return rng.choice((0.0, math.pi)) if rng.random() < 0.2 else rng.uniform(0.0, math.pi)

    def xi():
        return rng.choice((-1.0, 0.0, 1.0)) if rng.random() < 0.3 else rng.uniform(-1.0, 1.0)

    def closed_form(huge):
        """A fig2, dimer-rates, ep-locate or single-rates argv (gamma 1e300 or
        1.7e308 if ``huge``, else drawn): every convention
        drawn; theta ranges lo:hi with 0 <= lo < hi <= pi (fig2 has none, and
        ep-locate keeps its default bracket on half the draws); fig2 takes
        either --temp and one to three xi."""
        command = rng.choice(("fig2", "dimer-rates", "ep-locate", "single-rates"))
        gamma = (rng.choice((1e300, 1.7e308)) if huge
                 else math.exp(rng.uniform(math.log(0.01), math.log(2.0))))
        argv = [command, "--gamma", _f(gamma), "--omega", _f(rng.uniform(0.5, 2.0))]
        if command != "fig2":
            argv += ["--beta", _f(math.exp(rng.uniform(math.log(0.05), math.log(20.0))))]
        if command != "single-rates":
            argv += ["--coupling", _f(rng.uniform(0.05, 0.5)),
                     "--convention", rng.choice(("appendix", "maintext")),
                     "--conjugation", rng.choice(("modulus", "analytic")),
                     "--jump-basis", rng.choice(("site", "deformed")),
                     "--stat-dephasing", rng.choice(("on", "off"))]
        if command in ("dimer-rates", "ep-locate"):
            argv += ["--xi", _f(xi())]
        if command == "fig2":
            argv += ["--temp", rng.choice(("low", "high")),
                     "--xi-list", ",".join(_f(xi()) for _ in range(rng.randint(1, 3)))]
        if command in ("dimer-rates", "single-rates") or (command == "ep-locate"
                                                          and rng.random() < 0.5):
            lo = rng.uniform(0.0, 1.5)
            argv += [f"--range={_f(lo)}:{_f(rng.uniform(lo + 0.1, math.pi))}"]
        if command != "ep-locate":
            argv += ["--grid", str(rng.randint(2, 64))]
        return argv + ["--out", "rates.csv"]

    def sweep():
        """A sweep argv and its run.json: base params and 1-3 distinct axes
        drawn over SWEEP_RANGES (gamma and beta log-uniform, either direction),
        2-40 points each, every convention drawn; on one draw in ten one axis
        ends at a SWEEP_INVALID value. A quarter write to stdout."""
        def draw(name):
            lo, hi = SWEEP_RANGES[name]
            if name in ("gamma", "beta"):
                return math.exp(rng.uniform(math.log(lo), math.log(hi)))
            return rng.uniform(lo, hi)

        names = rng.sample(sorted(SWEEP_RANGES), rng.randint(1, 3))
        axes = [{"name": name, "start": draw(name), "stop": draw(name),
                 "count": rng.randint(2, 40)} for name in names]
        if rng.random() < 0.1:
            bad = rng.choice(sorted(SWEEP_INVALID))
            axis = next((ax for ax in axes if ax["name"] == bad), axes[0])
            axis["name"] = bad
            axis[rng.choice(("start", "stop"))] = rng.choice(SWEEP_INVALID[bad])
        doc = {"params": {name: draw(name) for name in SWEEP_RANGES}, "sweep": axes,
               "conventions": {"frequency": rng.choice(("appendix", "maintext")),
                               "conjugation": rng.choice(("modulus", "analytic")),
                               "jump_basis": rng.choice(("site", "deformed")),
                               "stat_dephasing": rng.random() < 0.5}}
        argv = ["sweep", "--config", "run.json"]
        return argv + ["--out", "sweep.csv"] * (rng.random() >= 0.25), json.dumps(doc)

    commands = []
    for k in range(draws):
        if k % 5 == 4:
            commands.append((closed_form(huge=k % 50 == 49), None))
            continue
        if k % 5 == 2:
            commands.append(sweep())
            continue
        common = ["--beta", _f(math.exp(rng.uniform(math.log(0.05), math.log(20.0)))),
                  "--gamma", _f(math.exp(rng.uniform(math.log(0.01), math.log(2.0)))),
                  "--coupling", _f(rng.uniform(0.05, 0.5)),
                  "--t2", _f(0.0 if rng.random() < 0.4 else rng.uniform(0.0, 20.0)),
                  "--grid", str(rng.randint(2, 64)),
                  "--jump-basis", rng.choice(("site", "deformed")),
                  "--conjugation", rng.choice(("modulus", "analytic"))]
        svg = rng.random() < 0.25
        if k % 4 == 3:
            thetas = ",".join(_f(theta()) for _ in range(rng.randint(1, 3)))
            xis = ",".join(_f(xi()) for _ in range(rng.randint(1, 2)))
            argv = ["fig3", "--theta-list", thetas, "--xi-list", xis, *common, "--out", "fig3"]
            commands.append((argv + ["--svg"] * svg, None))
        else:
            argv = ["spectrum", "--theta", _f(theta()), "--xi", _f(xi()), *common,
                    "--out", "grid.csv"]
            commands.append((argv + ["--svg", "grid.svg"] * svg, None))
    return commands


def run_tree(tree: str, workdir: str, commands: list) -> list:
    """Run the (argv, run.json text or None) ``commands`` on ``tree`` in a
    child process; [(code, stdout, stderr)]."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", workdir],
                          input=json.dumps(commands),
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: child exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def child(workdir: str):
    """Child side: each command through ``cli.main`` in ``workdir/<k>``, with
    its run.json there if it has one."""
    from anyonosc.cli import main

    results = []
    for k, (argv, run_json) in enumerate(json.load(sys.stdin)):
        here = os.path.join(workdir, str(k))
        os.makedirs(here)
        if run_json is not None:
            with open(os.path.join(here, "run.json"), "w", encoding="utf-8") as fh:
                fh.write(run_json)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(here)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # a traceback is an outcome to compare, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
        # a refusal names a file by its real path: the tree's own directory
        results.append((code, *(text.getvalue().replace(os.path.realpath(here), "<dir>")
                                for text in (out, err))))
    os.chdir(workdir)
    json.dump(results, sys.stdout)


def _files(root: str) -> list:
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, _, names in os.walk(root) for name in names)


def _read_csv(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    names = [cell.partition(" [")[0] for cell in rows[0]]
    return names, np.array(rows[1:], dtype=float).reshape(-1, len(names))


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(a), initial=0.0))
    worst = float(np.max(np.abs(a - b), initial=0.0))
    return worst / scale if scale > 0.0 else worst


def csv_deviations(a: bytes, b: bytes) -> dict:
    """Worst relative deviation per column, and of re + i im; or why there is none."""
    names_a, rows_a = _read_csv(a)
    names_b, rows_b = _read_csv(b)
    if names_a != names_b or rows_a.shape != rows_b.shape:
        return {"shape": f"{names_a} {rows_a.shape} != {names_b} {rows_b.shape}"}
    dev = {name: _deviation(rows_a[:, k], rows_b[:, k]) for k, name in enumerate(names_a)}
    if "re" in names_a and "im" in names_a:
        re_k, im_k = names_a.index("re"), names_a.index("im")
        dev["re+i im"] = _deviation(rows_a[:, re_k] + 1j * rows_a[:, im_k],
                                    rows_b[:, re_k] + 1j * rows_b[:, im_k])
    return dev


RECT = re.compile(rb'<rect x="([0-9.]+)" y="([0-9.]+)" width="([0-9.]+)" '
                  rb'height="[0-9.]+" fill="([^"]+)"')


def heatmap_levels(svg: bytes) -> np.ndarray:
    """The palette level of each cell of a heatmap SVG, (row, column) as drawn:
    a cell rect's run length is its width less the 0.5 overlap over the frame's
    width / n, and the palette is the colour bar (its rects are 14 wide)."""
    rects = RECT.findall(svg)
    frame = next(float(width) for _, _, width, fill in rects if fill == b"none")
    bar = [fill for _, _, width, fill in rects if width == b"14"]
    cells = [(y, float(width), fill) for _, y, width, fill in rects
             if fill.startswith(b"#") and width != b"14"]
    n = len({y for y, _, _ in cells})
    levels = [bar.index(fill) for _, width, fill in cells
              for _ in range(round((width - 0.5) * n / frame))]
    return np.array(levels).reshape(n, n)


def svg_fill_changes(a: bytes, b: bytes) -> dict:
    """How many heatmap cells changed fill, and the largest palette-level step."""
    try:
        levels_a, levels_b = heatmap_levels(a), heatmap_levels(b)
    except (StopIteration, ValueError) as exc:
        return {"cells": f"not a heatmap ({exc})"}
    if levels_a.shape != levels_b.shape:
        return {"cells": f"{levels_a.shape} != {levels_b.shape}"}
    step = np.abs(levels_a - levels_b)
    return {"cells": levels_a.size, "changed": int(np.count_nonzero(step)),
            "largest_step": int(step.max())}


def compare_command(dir_a: str, dir_b: str, res_a, res_b) -> dict:
    """Streams and files of one command on both trees."""
    streams = [name for name, x, y in zip(("exit", "stdout", "stderr"), res_a, res_b) if x != y]
    files_a, files_b = _files(dir_a), _files(dir_b)
    files = {}
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_a or name not in files_b:
            files[name] = {"identical": False, "only_in": "A" if name in files_a else "B"}
            continue
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            a, b = fa.read(), fb.read()
        if name.endswith(".meta.json"):
            a, b = CREATED.sub(b"", a), CREATED.sub(b"", b)
        entry = {"identical": a == b}
        if a != b and name.endswith(".csv"):
            entry["deviation"] = csv_deviations(a, b)
        if a != b and name.endswith(".svg"):
            entry["fills"] = svg_fill_changes(a, b)
        files[name] = entry
    return {"streams_differ": streams, "files": files}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", nargs="?")
    ap.add_argument("tree_b", nargs="?")
    ap.add_argument("--draws", type=int, default=40, help="seeded commands")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if not (args.tree_a and args.tree_b):
        ap.error("TREE_A and TREE_B are required")

    readme, run_json = readme_commands(args.tree_a)
    commands = [(argv, run_json if "--config" in argv else None) for argv in readme]
    commands += seeded_commands(args.draws, args.seed)
    work = tempfile.mkdtemp(prefix="compare-outputs-")
    try:
        results = []
        for label, tree in (("A", args.tree_a), ("B", args.tree_b)):
            os.makedirs(os.path.join(work, label))
            results.append(run_tree(tree, os.path.join(work, label), commands))
        worst = {}
        nfiles = identical = mismatched_streams = 0
        for k, ((argv, config), res_a, res_b) in enumerate(zip(commands, *results)):
            entry = compare_command(os.path.join(work, "A", str(k)),
                                    os.path.join(work, "B", str(k)), res_a, res_b)
            line = " ".join(argv) + (f" (run.json {json.dumps(json.loads(config))})"
                                     if config else "")
            if entry["streams_differ"]:
                mismatched_streams += 1
                print(f"[{k}] {line}: {', '.join(entry['streams_differ'])} differ")
            for name, f in entry["files"].items():
                nfiles += 1
                identical += f["identical"]
                if f["identical"]:
                    continue
                dev = f.get("deviation", {})
                for col, value in dev.items():
                    if isinstance(value, float) and value > worst.get(col, (-1.0,))[0]:
                        worst[col] = (value, k)
                detail = ", ".join(f"{c} {v:.2g}" if isinstance(v, float) else f"{c}: {v}"
                                   for c, v in dev.items())
                fills = f.get("fills", {})
                if "changed" in fills:
                    detail = (f"{fills['changed']} of {fills['cells']} cell fills changed, "
                              f"largest step {fills['largest_step']} levels")
                elif fills:
                    detail = f"cells: {fills['cells']}"
                print(f"[{k}] {line}: {name} differs" + (f"; {detail}" if detail else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = {"commands": len(commands), "files": nfiles, "identical_files": identical,
               "differing_files": nfiles - identical, "stream_mismatches": mismatched_streams,
               "worst_deviation": {col: {"value": v, "command": k}
                                   for col, (v, k) in sorted(worst.items())}}
    print(json.dumps(summary))
    return 0 if identical == nfiles and not mismatched_streams else 1


if __name__ == "__main__":
    sys.exit(main())
