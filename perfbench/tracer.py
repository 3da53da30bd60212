"""Span tracer installed from outside the package.

``Tracer.install()`` wraps every public function of the anyonosc layer modules
(plus the constructor hook of their public classes) and the dense-kernel entry
points the package calls through ``scipy.linalg`` and ``numpy.linalg``. Each
wrapper replaces the function in every module namespace that binds it (for
example ``spectra`` imports ``build_liouvillian`` by name), so calls are traced
whichever name they go through. ``uninstall()`` puts every original back.

Spans live in flat in-memory arrays (name id, parent index, start, end) and
are written once, by ``save``, after the run. Per-name and per-layer
aggregates are kept as spans close: a span's self time is its duration minus
the durations of its direct children; a layer's busy time is the duration of
its spans whose parent belongs to another layer.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array

LAYER_MODULES = ("cli", "sweeps", "params", "rates", "dimer", "fock", "spectra", "output")
LAYERS = LAYER_MODULES + ("linalg",)
LINALG_ROUTINES = {
    "scipy.linalg": ("lu_factor", "lu_solve", "expm"),
    "numpy.linalg": ("svd", "eigvals", "eigvalsh", "norm"),
}
# Per-value leaf helpers: called once per CSV field (about 260k times per
# grid-export op), so a span each would cost more than the work it times.
# Their time stays in the caller's self time, inside the same layer.
UNWRAPPED = {("output", "format_number")}
# Serialization groups inside the output layer (self time is summed per group).
OUTPUT_GROUPS = {
    "csv": ("write_csv", "csv_text", "write_grid_csv", "read_csv", "write_outputs"),
    "svg": ("svg_heatmap", "write_grid_svg"),
    "meta": ("metadata_document", "write_metadata", "validate_metadata"),
}


def _layer_modules():
    return {name: importlib.import_module(f"anyonosc.{name}") for name in LAYER_MODULES}


def _namespaces():
    """Every module namespace a traced callable may be looked up through."""
    mods = list(_layer_modules().values()) + [importlib.import_module("anyonosc")]
    return mods + [importlib.import_module(m) for m in LINALG_ROUTINES]


def trace_targets():
    """(layer, name, owner, attribute) for everything the tracer wraps.

    ``owner`` is the defining module for functions and the class for
    constructor hooks (``__init__`` of plain classes, ``__post_init__`` of
    dataclasses).
    """
    targets = []
    for layer, mod in _layer_modules().items():
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (layer, name) not in UNWRAPPED:
                targets.append((layer, name, mod, name))
            elif inspect.isclass(obj):
                hook = "__post_init__" if dataclasses.is_dataclass(obj) else "__init__"
                if hook in vars(obj):
                    targets.append((layer, name, obj, hook))
    for modname, routines in LINALG_ROUTINES.items():
        mod = importlib.import_module(modname)
        for name in routines:
            targets.append(("linalg", name, mod, name))
    return targets


class Tracer:
    """In-memory spans and aggregates for one traced phase."""

    def __init__(self):
        self.names = []                 # "layer.name" per name id
        self.name_layer = []            # layer index per name id
        self.calls = []
        self.busy = []
        self.self_s = []
        self.layer_busy = [0.0] * len(LAYERS)
        self.layer_self = [0.0] * len(LAYERS)
        self.layer_errors = [0] * len(LAYERS)
        self.root_s = [0.0]             # duration of spans with no parent span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self.counters = {"spectra.cells": 0, "spectra.finite_cells": 0,
                         "fock.liouvillian_order_max": 0, "fock.liouvillian_bytes": 0,
                         "linalg.lu_factor.flops": 0.0, "sweeps.points": 0,
                         "dimer.find_exceptional_point.evals": 0}
        self.op = -1
        self._stack = []                # frames [layer, child_time, span index]
        self._patches = []              # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.name_layer.append(LAYERS.index(layer))
        self.calls.append(0)
        self.busy.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, nid: int, hooks):
        layer = self.name_layer[nid]
        stack, calls, busy, self_s = self._stack, self.calls, self.busy, self.self_s
        layer_busy, layer_self, errors = self.layer_busy, self.layer_self, self.layer_errors
        root_s = self.root_s
        names, parents, opids = self.span_name, self.span_parent, self.span_op
        t0s, t1s = self.span_t0, self.span_t1
        pre, post = hooks or (None, None)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(t0s)
            names.append(nid)
            parents.append(parent[2] if parent is not None else -1)
            opids.append(tracer.op)
            t0s.append(0.0)
            t1s.append(0.0)
            frame = [layer, 0.0, idx]
            stack.append(frame)
            token = pre(tracer) if pre is not None else None
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[0] != layer:  # the exception leaves the layer
                    errors[layer] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                t0s[idx] = start
                t1s[idx] = end
                calls[nid] += 1
                busy[nid] += dur
                own = dur - frame[1]
                self_s[nid] += own
                layer_self[layer] += own
                if parent is None or parent[0] != layer:
                    layer_busy[layer] += dur
                if parent is not None:
                    parent[1] += dur
                else:
                    root_s[0] += dur
            if post is not None:
                post(tracer, token, result, args)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = _namespaces()
        for layer, name, owner, attr in trace_targets():
            original = vars(owner)[attr]
            wrapped = self._wrap(original, self._name_id(layer, name), _HOOKS.get((layer, name)))
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for bound_name, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, bound_name, original))
                        setattr(ns, bound_name, wrapped)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def _get(self, key: str, field: str):
        if key not in self.names:
            return 0
        return getattr(self, field)[self.names.index(key)]

    def _layer_name_sum(self, layer: str, field: str, only=None):
        vals = getattr(self, field)
        return sum(v for n, v in zip(self.names, vals)
                   if n.split(".", 1)[0] == layer and (only is None or n.split(".", 1)[1] in only))

    def summary(self, ops: int, op_wall_s: float) -> dict:
        """Per-op layer metrics (name -> (value, unit)) for ``ops`` traced ops."""
        per = 1.0 / max(ops, 1)
        m = {}
        for group, names in OUTPUT_GROUPS.items():
            m[f"output.{group}.busy_s"] = (self._layer_name_sum("output", "self_s", names) * per, "s")
        m["spectra.rephasing_response.calls"] = (self._get("spectra.rephasing_response", "calls") * per, "count")
        m["spectra.rephasing_response.busy_s"] = (self._get("spectra.rephasing_response", "busy") * per, "s")
        cells = self.counters["spectra.cells"]
        m["spectra.cells"] = (cells * per, "count")
        m["spectra.finite_frac"] = (self.counters["spectra.finite_cells"] / cells if cells else 0.0, "1")
        for routines in LINALG_ROUTINES.values():
            for r in routines:
                m[f"linalg.{r}.calls"] = (self._get(f"linalg.{r}", "calls") * per, "count")
                m[f"linalg.{r}.busy_s"] = (self._get(f"linalg.{r}", "busy") * per, "s")
        m["linalg.lu_factor.flops"] = (self.counters["linalg.lu_factor.flops"] * per, "flop_computed")
        m["fock.build_liouvillian.calls"] = (self._get("fock.build_liouvillian", "calls") * per, "count")
        m["fock.build_liouvillian.busy_s"] = (self._get("fock.build_liouvillian", "busy") * per, "s")
        m["fock.liouvillian_order_max"] = (self.counters["fock.liouvillian_order_max"], "count")
        m["fock.liouvillian_bytes"] = (self.counters["fock.liouvillian_bytes"] * per, "B_computed")
        m["dimer.build_weff.calls"] = (self._get("dimer.build_weff", "calls") * per, "count")
        m["dimer.build_weff.busy_s"] = (self._get("dimer.build_weff", "busy") * per, "s")
        m["dimer.find_exceptional_point.busy_s"] = (
            self._get("dimer.find_exceptional_point", "busy") * per, "s")
        m["dimer.find_exceptional_point.evals"] = (
            self.counters["dimer.find_exceptional_point.evals"] * per, "count")
        m["rates.calls"] = (self._layer_name_sum("rates", "calls") * per, "count")
        m["rates.busy_s"] = (self.layer_busy[LAYERS.index("rates")] * per, "s")
        m["params.AnyonParams.calls"] = (self._get("params.AnyonParams", "calls") * per, "count")
        m["sweeps.points"] = (self.counters["sweeps.points"] * per, "count")
        for layer in ("cli", "sweeps", "dimer", "spectra"):
            key = "cli.main.self_s" if layer == "cli" else f"{layer}.self_s"
            m[key] = (self.layer_self[LAYERS.index(layer)] * per, "s")
        for i, layer in enumerate(LAYERS):
            m[f"{layer}.errors"] = (self.layer_errors[i] * per, "count")
        wall = max(op_wall_s, 1e-12)
        for i, layer in enumerate(LAYERS):
            m[f"share.{layer}"] = (self.layer_self[i] / wall, "1")
        m["share.bench"] = (max(wall - self.root_s[0], 0.0) / wall, "1")
        m["trace.spans"] = (len(self.span_t0) * per, "count")
        return m

    def save(self, path: str):
        """Write the spans once, as a numpy .npz archive."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 op=np.frombuffer(self.span_op, np.int32),
                 t0=np.frombuffer(self.span_t0), t1=np.frombuffer(self.span_t1))


# -- counters read at layer boundaries ------------------------------------

def _count_cells(tracer, _token, grid, _args):
    import numpy as np

    tracer.counters["spectra.cells"] += int(grid.values.size)
    tracer.counters["spectra.finite_cells"] += int(np.isfinite(grid.values).sum())


def _count_liouvillian(tracer, _token, liouv, _args):
    order = int(liouv.shape[0])
    c = tracer.counters
    c["fock.liouvillian_order_max"] = max(c["fock.liouvillian_order_max"], order)
    c["fock.liouvillian_bytes"] += order * order * 16


def _count_lu_flops(tracer, _token, _result, args):
    n = int(args[0].shape[0])
    # complex LU: (2/3) n^3 multiply-adds, 8 real flops each -> (8/3) n^3
    tracer.counters["linalg.lu_factor.flops"] += 8.0 * n ** 3 / 3.0


def _count_points(tracer, _token, result, _args):
    tracer.counters["sweeps.points"] += len(result.rows)


def _weff_calls(tracer):
    return tracer._get("dimer.build_weff", "calls")


def _count_ep_evals(tracer, token, _result, _args):
    tracer.counters["dimer.find_exceptional_point.evals"] += _weff_calls(tracer) - token


_HOOKS = {
    ("spectra", "rephasing_response"): (None, _count_cells),
    ("fock", "build_liouvillian"): (None, _count_liouvillian),
    ("linalg", "lu_factor"): (None, _count_lu_flops),
    ("sweeps", "run_sweep"): (None, _count_points),
    ("sweeps", "run_fig1"): (None, _count_points),
    ("sweeps", "run_fig2"): (None, _count_points),
    ("dimer", "find_exceptional_point"): (_weff_calls, _count_ep_evals),
}
