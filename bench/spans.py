"""Layer spans for the benchmark's traced run, recorded from outside solgeo.

``Tracer.install`` rebinds the callables one solgeo module imports from
another (``solgeo.cli.raw_fields``, ``solgeo.stability.frame_components``,
``solgeo.stationary._eval_raw``, ...) and wraps the public methods the
layers call (``ScalarField.values``, ``SurfacePatch.geom``,
``RuledSurface.point``, ...).  Each call then records a span

    [name, start, end, parent span, op id, count, bytes]

in memory; ``uninstall`` puts every original back.  The layer of a span is
the part of its name before the first dot, and the layers are solgeo's
modules.  Nothing under ``src/`` is changed.

A span's self time is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import math
import os
import zlib
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, COUNT, BYTES = range(7)

LAYERS = ("cli", "exporters", "surface", "stability", "stationary", "curves",
          "expressions", "frame")


def _size(*arrays) -> int:
    return math.prod(np.broadcast_shapes(*(np.shape(a) for a in arrays)))


def _count_xyz(field, x, y, z):
    return _size(x, y, z)


def _count_frame(z, dx, dy, dz):
    return _size(z, dx, dy, dz)


def _count_eval_raw(x0, y0, z0, xd, yd, zd, t):
    return _size(t)


def _count_graph_area(kind, window, h_fn, cells):
    from solgeo.stability import GL_ORDER

    return (cells * GL_ORDER) ** 2


def _count_param(obj, eps, t, *rest, **kw):
    return _size(eps, t)


def _trees(n):
    """Counter for ScalarField array methods: points times trees evaluated."""
    def count(field, x, y, z):
        return n * _size(x, y, z)
    return count


# (module, attribute, span name, counter).  Every import site of a callable
# is listed, so calls between modules go through the wrapper.
FUNCTIONS = (
    ("solgeo.cli", "main", "cli.main", None),
    ("solgeo.cli", "raw_fields", "surface.raw_fields", _count_xyz),
    ("solgeo.stability", "raw_fields", "surface.raw_fields", _count_xyz),
    ("solgeo.surface", "raw_fields", "surface.raw_fields", _count_xyz),
    ("solgeo.cli", "parse_field", "expressions.parse", None),
    ("solgeo.expressions", "parse", "expressions.parse", None),
    ("solgeo.cli", "catalog", "expressions.catalog", None),
    ("solgeo.expressions", "catalog", "expressions.catalog", None),
    ("solgeo.stability", "catalog", "expressions.catalog", None),
    ("solgeo.stationary", "catalog", "expressions.catalog", None),
    ("solgeo.cli", "frame_components", "frame.components", _count_frame),
    ("solgeo.frame", "frame_components", "frame.components", _count_frame),
    ("solgeo.stability", "frame_components", "frame.components", _count_frame),
    ("solgeo.stationary", "frame_components", "frame.components", _count_frame),
    ("solgeo.cli", "q_form", "stability.q_form", None),
    ("solgeo.stability", "q_form", "stability.q_form", None),
    ("solgeo.cli", "q_form_simplified", "stability.q_form_simplified", None),
    ("solgeo.cli", "compare_q_forms", "stability.compare_q_forms", None),
    ("solgeo.cli", "patch_for_catalog", "stability.patch_for_catalog", None),
    ("solgeo.stability", "patch_for_catalog", "stability.patch_for_catalog", None),
    ("solgeo.stability", "patch_from_ruled", "stability.patch_from_ruled", None),
    ("solgeo.stability", "_patch_frame_data", "stability.frame_data", None),
    ("solgeo.cli", "battery_test_functions", "stability.battery_test_functions", None),
    ("solgeo.cli", "area_compare", "stability.area_compare", None),
    ("solgeo.stability", "_graph_area", "stability.graph_area", _count_graph_area),
    ("solgeo.stability", "gl_line", "stability.gl_line", None),
    ("solgeo.cli", "sweep_surface", "stationary.sweep_surface", None),
    ("solgeo.stationary", "sweep_surface", "stationary.sweep_surface", None),
    ("solgeo.cli", "orthogonality_check", "stationary.orthogonality_check", None),
    ("solgeo.stationary", "orthogonality_check", "stationary.orthogonality_check", None),
    ("solgeo.cli", "uniqueness_scan", "stationary.uniqueness_scan", None),
    ("solgeo.stationary", "uniqueness_scan", "stationary.uniqueness_scan", None),
    ("solgeo.stationary", "jacobi_vertical", "stationary.jacobi_vertical", None),
    ("solgeo.stationary", "_eval_raw", "curves.eval", _count_eval_raw),
    ("solgeo.curves", "_eval_raw", "curves.eval", _count_eval_raw),
    ("solgeo.stationary", "make_curve", "curves.make_curve", None),
    ("solgeo.cli", "make_curve", "curves.make_curve", None),
    ("solgeo.cli", "eval_curve", "curves.eval_curve", None),
    ("solgeo.curves", "eval_curve", "curves.eval_curve", None),
    ("solgeo.cli", "integrate_ode", "curves.integrate_ode", None),
    ("solgeo.curves", "integrate_ode", "curves.integrate_ode", None),
)

# (module, class, method, span name, counter)
METHODS = (
    ("solgeo.expressions", "ScalarField", "values", "expressions.values", _trees(1)),
    ("solgeo.expressions", "ScalarField", "grad_arrays", "expressions.grad_arrays", _trees(3)),
    ("solgeo.expressions", "ScalarField", "hessian_arrays", "expressions.hessian_arrays",
     _trees(6)),
    ("solgeo.stability", "SurfacePatch", "geom", "stability.geom", None),  # see _count_geom
    ("solgeo.stationary", "RuledSurface", "point", "stationary.point", _count_param),
    ("solgeo.stationary", "RuledSurface", "t_velocity", "stationary.t_velocity", _count_param),
    ("solgeo.stationary", "RuledSurface", "eps_velocity", "stationary.eps_velocity",
     _count_param),
    ("solgeo.stationary", "RuledSurface", "ruling", "stationary.ruling", None),
)

#: writers whose output size is recorded: (module, attribute, span name)
WRITERS = (
    ("solgeo.cli", "write_csv", "exporters.write_csv"),
    ("solgeo.cli", "write_obj", "exporters.write_obj"),
    ("solgeo.cli", "write_json", "exporters.write_json"),
)


class _CountingRows:
    """Iterator over CSV rows that counts what it yields."""

    def __init__(self, rows):
        self._it = iter(rows)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._it)
        self.n += 1
        return row


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self._undo = []
        # patch geometry evaluations: all, and distinct by (patch, source, nodes)
        self.geom_total = 0
        self._geom_keys = set()
        self._ruled_source = {}
        self._pins = []

    # -- spans ------------------------------------------------------------

    def _open(self, name, count=0):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, count, 0])
        self._stack.append(idx)
        self.spans[idx][START] = perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one op; spans opened inside carry ``op_id``."""
        self.op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, count(*args, **kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_patch_from_ruled(self, name, fn):
        """Also remembers which ruled surface each field-less patch came
        from, which identifies its geometry for ``_count_geom``."""
        traced = self._wrap(name, fn, None)

        @functools.wraps(fn)
        def remember(surface, *args, **kwargs):
            patch = traced(surface, *args, **kwargs)
            self._ruled_source[id(patch.geometry)] = (surface, args, tuple(kwargs.items()))
            self._pins.append(patch.geometry)  # keeps the id unique
            return patch
        return remember

    def _wrap_writer(self, name, fn):
        @functools.wraps(fn)
        def traced(path, *args):
            if name.endswith("write_csv"):
                header, rows = args
                args = (header, _CountingRows(rows))
            idx = self._open(name)
            try:
                return fn(path, *args)
            finally:
                self._close(idx)
                span = self.spans[idx]
                if name.endswith("write_csv"):
                    span[COUNT] = args[1].n
                elif name.endswith("write_obj"):
                    span[COUNT] = len(args[0])
                span[BYTES] = os.path.getsize(path)
        return traced

    def _count_geom(self, patch, eps, t):
        """Node count of a geometry evaluation, plus its identity for
        ``stability.geom_useful_frac``: patch name, field source and the
        bytes of the node arrays."""
        e, tt = np.broadcast_arrays(np.asarray(eps, dtype=float), np.asarray(t, dtype=float))
        e, tt = np.ascontiguousarray(e), np.ascontiguousarray(tt)
        if patch.field is not None:
            source = patch.field.source
        else:
            source = self._ruled_source.get(id(patch.geometry))
            if source is None:  # built before the tracer was installed
                source = id(patch.geometry)
                self._pins.append(patch.geometry)
        key = (patch.name, source, e.shape, zlib.crc32(e), zlib.crc32(tt),
               zlib.adler32(e), zlib.adler32(tt))
        self.geom_total += 1
        self._geom_keys.add(key)
        return e.size

    @property
    def geom_distinct(self) -> int:
        return len(self._geom_keys)

    # -- rebinding --------------------------------------------------------

    def install(self):
        """Rebind every target; the same original gets the same wrapper."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}

        def wrapper_for(fn, make):
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = (fn, make())
            return wrappers[key][1]

        for mod_name, attr, span, count in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            if attr == "patch_from_ruled":
                make = lambda: self._wrap_patch_from_ruled(span, fn)  # noqa: E731
            else:
                make = lambda: self._wrap(span, fn, count)  # noqa: E731
            self._set(mod, attr, fn, wrapper_for(fn, make))
        for mod_name, attr, span in WRITERS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._set(mod, attr, fn, wrapper_for(fn, lambda: self._wrap_writer(span, fn)))
        for mod_name, cls_name, meth, span, count in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            fn = cls.__dict__[meth]
            if meth == "geom":
                count = self._count_geom
            self._set(cls, meth, fn, self._wrap(span, fn, count))

    def _set(self, owner, attr, original, replacement):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        """Put every original back, in reverse order of installation."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def dump(self, path):
        """Write the spans as gzipped JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count", "bytes"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Duration of each span minus the union of its children, clipped to it."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = union_length((max(spans[c][START], lo), min(spans[c][END], hi))
                               for c in children[i])
        out.append((hi - lo) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, geom_total=0, geom_distinct=0) -> dict:
    """Per-layer metrics from a traced run's spans.

    Counts and times are per op (totals divided by the number of ``op``
    root spans); ``*_frac`` values are shares of total op wall time.
    """
    selft = self_times(spans)
    ops = [s for s in spans if s[NAME] == "op"]
    n_ops = max(len(ops), 1)
    op_time = sum(s[END] - s[START] for s in ops) or float("nan")

    calls, count, bytes_, by_name = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    by_layer = {layer: [] for layer in LAYERS}
    for s, st in zip(spans, selft):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        count[name] = count.get(name, 0) + s[COUNT]
        bytes_[name] = bytes_.get(name, 0) + s[BYTES]
        by_name.setdefault(name, []).append((s[START], s[END]))
        layer = layer_of(name)
        if layer in layer_self:
            layer_self[layer] += st
            by_layer[layer].append((s[START], s[END]))
    # inclusive time per span name, counting nested same-name spans once
    incl = {name: union_length(iv) for name, iv in by_name.items()}

    def per_op(d, name):
        return d.get(name, 0) / n_ops

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def frac(intervals):
        return union_length(intervals) / op_time

    m = {}
    rows = count.get("exporters.write_csv", 0)
    m["exporters.csv_rows"] = per_op(count, "exporters.write_csv")
    m["exporters.csv_bytes"] = per_op(bytes_, "exporters.write_csv")
    m["exporters.csv_s"] = per_op(incl, "exporters.write_csv")
    m["exporters.us_per_row"] = ratio(incl.get("exporters.write_csv", 0.0), rows, 1e6)
    m["exporters.obj_bytes"] = per_op(bytes_, "exporters.write_obj")
    m["exporters.obj_s"] = per_op(incl, "exporters.write_obj")
    m["exporters.json_bytes"] = per_op(bytes_, "exporters.write_json")
    m["exporters.json_s"] = per_op(incl, "exporters.write_json")

    rf_calls, rf_nodes = calls.get("surface.raw_fields", 0), count.get("surface.raw_fields", 0)
    m["surface.raw_fields_calls"] = rf_calls / n_ops
    m["surface.raw_fields_nodes"] = rf_nodes / n_ops
    m["surface.nodes_per_call"] = ratio(rf_nodes, rf_calls)
    m["surface.self_s"] = layer_self["surface"] / n_ops
    m["surface.ns_per_node"] = ratio(layer_self["surface"], rf_nodes, 1e9)

    qf = calls.get("stability.q_form", 0)
    m["stability.q_form_calls"] = qf / n_ops
    m["stability.ms_per_q_form"] = ratio(incl.get("stability.q_form", 0.0), qf, 1e3)
    m["stability.geom_calls"] = per_op(calls, "stability.geom")
    m["stability.geom_nodes"] = per_op(count, "stability.geom")
    m["stability.geom_s"] = per_op(incl, "stability.geom")
    m["stability.geom_useful_frac"] = ratio(geom_distinct, geom_total)
    m["stability.gl_line_calls"] = per_op(calls, "stability.gl_line")
    m["stability.area_nodes"] = per_op(count, "stability.graph_area")
    m["stability.area_s"] = per_op(incl, "stability.graph_area")
    m["stability.self_s"] = layer_self["stability"] / n_ops

    m["stationary.point_calls"] = per_op(calls, "stationary.point")
    m["stationary.point_nodes"] = per_op(count, "stationary.point")
    m["stationary.eps_velocity_calls"] = per_op(calls, "stationary.eps_velocity")
    m["stationary.eps_velocity_s"] = per_op(incl, "stationary.eps_velocity")
    m["stationary.self_s"] = layer_self["stationary"] / n_ops

    m["curves.eval_calls"] = per_op(calls, "curves.eval")
    m["curves.self_s"] = layer_self["curves"] / n_ops
    m["curves.ode_calls"] = per_op(calls, "curves.integrate_ode")
    m["curves.ode_s"] = per_op(incl, "curves.integrate_ode")

    evals = sum(count.get(f"expressions.{k}", 0)
                for k in ("values", "grad_arrays", "hessian_arrays"))
    m["expressions.parse_calls"] = per_op(calls, "expressions.parse")
    m["expressions.parse_s"] = per_op(incl, "expressions.parse")
    m["expressions.eval_calls"] = sum(
        calls.get(f"expressions.{k}", 0)
        for k in ("values", "grad_arrays", "hessian_arrays")) / n_ops
    m["expressions.eval_nodes"] = evals / n_ops
    m["expressions.self_s"] = layer_self["expressions"] / n_ops
    m["expressions.ns_per_node"] = ratio(layer_self["expressions"], evals, 1e9)

    m["frame.components_calls"] = per_op(calls, "frame.components")
    m["frame.components_nodes"] = per_op(count, "frame.components")
    m["frame.self_s"] = layer_self["frame"] / n_ops

    m["cli.calls"] = per_op(calls, "cli.main")
    m["cli.self_s"] = layer_self["cli"] / n_ops

    for layer in LAYERS:
        m[f"{layer}.incl_frac"] = frac(by_layer[layer])
    # geometry that does not depend on u: pointwise fields, tangents, metric
    m["stability.geom_frac"] = frac(by_name.get("stability.geom", [])
                                    + by_name.get("stability.frame_data", [])
                                    + by_layer["surface"])
    m["stationary.plus_curves_frac"] = frac(by_layer["stationary"] + by_layer["curves"])
    op_self = sum(st for s, st in zip(spans, selft) if s[NAME] == "op")
    m["trace.coverage_frac"] = 1.0 - op_self / op_time
    m["trace.ops"] = len(ops)
    return m
