"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

import itertools
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.linalg  # noqa: E402

import anyonosc  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from anyonosc.output import write_csv, write_metadata  # noqa: E402
from anyonosc.sweeps import RunConfig, SweepResult  # noqa: E402


def first(workload, seed, n=16):
    return list(itertools.islice(inputs.ops(workload, seed), n))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert first(workload, 7) == first(workload, 7)
    assert first(workload, 7) != first(workload, 8)


def test_timed_grid_counts_even_defect_op_odd():
    for workload, lo, hi in (("grid-export", 240, 272), ("fig3-c3", 112, 144)):
        counts = [op.info["count"] for op in first(workload, 3, 40)]
        assert all(lo <= n <= hi and n % 2 == 0 for n in counts)
        defect = inputs.defect_op(workload, 3)
        assert defect == inputs.defect_op(workload, 3)
        assert lo <= defect.info["count"] <= hi and defect.info["count"] % 2 == 1
    assert inputs.defect_op("closed-form", 3) is None


def _fake_main(rows, rc=0, exc=None):
    def main(argv):
        if exc is not None:
            raise exc
        res = SweepResult(("theta", "value"), ("rad", "omega"), rows,
                          {"generator": "fake", "conventions": {
                              "frequency": "appendix", "conjugation": "modulus",
                              "jump_basis": "site", "stat_dephasing": False}})
        write_csv(res, "out.csv")
        write_metadata(res, RunConfig(), "out.csv.meta.json")
        return rc
    return main


@pytest.mark.parametrize("rows, rc, exc, failed", [
    ([(0.0, 1.0), (1.0, 2.0)], 0, None, False),
    ([(0.0, 1.0), (1.0, float("nan"))], 0, None, True),    # non-finite, exit 0
    ([(0.0, 1.0), (1.0, math.inf)], 0, None, True),
    ([(0.0, 1.0), (1.0, 2.0)], 2, None, True),              # non-zero exit
    ([], 0, IndexError("boom"), True),                       # raises
])
def test_op_failure_accounting(tmp_path, monkeypatch, rows, rc, exc, failed):
    monkeypatch.setattr(anyonosc.cli, "main", _fake_main(rows, rc, exc))
    op = inputs.Op(0, "fake", ("fake",), (), {"rows": 2})
    out = ops.run_op(op, str(tmp_path))
    assert (out.error is not None) is failed, out.error


def _bindings():
    spaces = tracer._namespaces()
    snap = {(ns.__name__, k): v for ns in spaces for k, v in vars(ns).items()}
    for _layer, _name, owner, attr in tracer.trace_targets():
        snap[(repr(owner), attr)] = vars(owner)[attr]
    return snap


def test_wrappers_patch_every_binding_and_restore():
    before = _bindings()
    original, original_lu = anyonosc.fock.build_liouvillian, scipy.linalg.lu_factor
    with tracer.Tracer() as t:
        assert anyonosc.spectra.build_liouvillian is not original
        assert anyonosc.spectra.build_liouvillian is anyonosc.fock.build_liouvillian
        assert anyonosc.build_liouvillian is anyonosc.fock.build_liouvillian
        assert scipy.linalg.lu_factor is not original_lu
        anyonosc.dimer.build_weff(anyonosc.params.AnyonParams(theta=0.5, xi=0.3))
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert anyonosc.spectra.build_liouvillian is original
    assert scipy.linalg.lu_factor is original_lu
    m = t.summary(1, 1.0)
    assert m["dimer.build_weff.calls"][0] == 1
    assert m["params.AnyonParams.calls"][0] == 1
    assert m["linalg.svd.calls"][0] == 1
    assert len(t.span_t0) == m["trace.spans"][0]


def test_self_time_excludes_children():
    with tracer.Tracer() as t:
        anyonosc.dimer.find_exceptional_point(anyonosc.params.AnyonParams(theta=0.0, xi=1.0))
    i = t.names.index("dimer.find_exceptional_point")
    assert 0 < t.self_s[i] < t.busy[i]
    evals = t.counters["dimer.find_exceptional_point.evals"]
    assert evals == t.calls[t.names.index("dimer.build_weff")] > 512


def test_tail_has_ten_samples_beyond():
    tl = stats.tail([float(x) for x in range(40)])
    assert tl["value"] == 29.0 and tl["beyond"] == 10 and tl["percentile"] == 75.0


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    layer = set(tracer.Tracer().summary(1, 1.0)) | {"trace.overhead_frac", "output.bytes",
                                                     "output.rows"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb"}


def test_fock_oracle_op_passes_at_small_cutoff():
    info = dict(first("fock-oracle", 1, 1)[0].info, cutoff=3)
    res = ops.fock_oracle(info)
    assert res["finite"] and res["leak"] <= ops.LEAK_BOUND
    assert info["theta"] == 0.0 and res["dev"] <= ops.CRITERION6_BOUND
    assert np.isfinite(res["dev"])
