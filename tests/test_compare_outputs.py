"""tools/compare_outputs.py: one tree against itself, and its file comparison."""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "compare_outputs.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_writes_what_it_writes(tool):
    proc = subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--draws", "4", "--seed", "1"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    readme, _ = tool.readme_commands(ROOT)
    assert summary["commands"] == len(readme) + 4
    # every README line but ep-locate writes a CSV and its sidecar
    assert summary["files"] >= 2 * (len(readme) - 1)
    assert summary["files"] == summary["identical_files"]
    assert summary["stream_mismatches"] == 0


def test_differences_are_found_and_measured(tool, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, re, created in ((a, "1", "2026-01-01T00:00:00+00:00"),
                           (b, "1.0000000000000002", "2030-01-01T00:00:00+00:00")):
        d.mkdir()
        (d / "g.csv").write_text(f"re [arb],im [arb]\n{re},-2\n0.5,1\n")
        (d / "g.csv.meta.json").write_text(f'{{\n  "artifact": "anyonosc",\n'
                                           f'  "created": "{created}",\n  "version": "0"\n}}\n')
        (d / "g.svg").write_text("<svg/>\n")
    (b / "extra.svg").write_text("<svg/>\n")
    got = tool.compare_command(str(a), str(b), (0, "", "wrote g.csv\n"), (1, "", "wrote g.csv\n"))
    assert got["streams_differ"] == ["exit"]
    files = got["files"]
    assert files["g.csv.meta.json"] == {"identical": True}  # only "created" differs
    assert files["g.svg"] == {"identical": True}
    assert files["extra.svg"] == {"identical": False, "only_in": "B"}
    dev = files["g.csv"]["deviation"]
    assert dev["re"] == pytest.approx(2.2e-16, rel=0.01) and dev["im"] == 0.0
    assert dev["re+i im"] == pytest.approx(2.2e-16 / 5 ** 0.5, rel=0.01)


def test_sweep_draws_cover_the_parameters_and_their_refusals(tool):
    # every fifth draw is a sweep of 1-3 axes over the six parameters, 2-40
    # points each; about one in ten is refused by the parameter check
    from anyonosc.params import ParameterError
    from anyonosc.sweeps import ConfigError, config_from_dict, run_sweep

    sweeps = [json.loads(config) for argv, config in tool.seeded_commands(1000, 3)
              if argv[0] == "sweep"]
    assert len(sweeps) == 200
    axes = [ax for doc in sweeps for ax in doc["sweep"]]
    assert {ax["name"] for ax in axes} == {"theta", "omega", "coupling_j", "gamma", "beta", "xi"}
    assert {len(doc["sweep"]) for doc in sweeps} == {1, 2, 3}
    assert min(ax["count"] for ax in axes) == 2 and max(ax["count"] for ax in axes) == 40
    refused = 0
    for doc in sweeps:
        try:
            run_sweep(config_from_dict(doc))
        except (ConfigError, ParameterError):
            refused += 1
    assert 0.05 <= refused / len(sweeps) <= 0.2


def test_a_heatmap_that_differs_counts_its_changed_fills(tool, tmp_path):
    from anyonosc.output import svg_heatmap
    rng = np.random.default_rng(4)
    n = 9
    axis = np.linspace(-0.5, 0.5, n)
    z = rng.normal(size=(n, n))
    z[:, 0] = 0.0  # runs of equal colour along each row
    moved = z.copy()
    moved[2, 3] = -moved[2, 3]  # a sign flip: a large step
    moved[5, 6] += 1e-3 * np.max(np.abs(z))  # at most one level
    assert np.array_equal(tool.heatmap_levels(svg_heatmap(axis, z).encode()).T,
                          np.clip(((z / np.max(np.abs(z))) * 0.5 + 0.5) * 63, 0, 63)
                          .round().astype(int))
    a, b = tmp_path / "a", tmp_path / "b"
    for d, grid in ((a, z), (b, moved)):
        d.mkdir()
        (d / "g.svg").write_text(svg_heatmap(axis, grid, "t"))
    fills = tool.compare_command(str(a), str(b), (0, "", ""), (0, "", ""))["files"]["g.svg"]
    levels = [tool.heatmap_levels((d / "g.svg").read_bytes()) for d in (a, b)]
    step = np.abs(levels[0] - levels[1])
    assert fills == {"identical": False, "fills": {
        "cells": n * n, "changed": int(np.count_nonzero(step)), "largest_step": int(step.max())}}
    assert 1 <= fills["fills"]["changed"] <= 2 and fills["fills"]["largest_step"] >= 2
    (b / "g.svg").write_text(svg_heatmap(np.linspace(-0.5, 0.5, 4), np.ones((4, 4))))
    got = tool.compare_command(str(a), str(b), (0, "", ""), (0, "", ""))["files"]["g.svg"]
    assert got["fills"] == {"cells": "(9, 9) != (4, 4)"}
