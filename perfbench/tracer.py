"""Spans around the public calls of each qfgl module, installed from outside.

``Tracer.installed()`` replaces every public module-level function and
every arithmetic operator of every class defined in a layer module by a
wrapper that records a span: name, start, end, parent span and job id.
Copies imported by name into other qfgl modules (``fgl``'s
``bi_compose``, ``varieties``'s ``cp_image``, the package namespace) are
replaced too, so every route into a function is seen.  Leaving the block
puts every original back.  Spans stay in memory until ``write_spans``.

A layer's self time is the time its spans cover minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
import types
from array import array
from contextlib import contextmanager

LAYERS = ("scalar", "series", "mobius", "fgl", "qcomb", "lambda_ring",
          "varieties", "expr", "cli")

OPERATORS = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__", "__neg__")

# Scalar operators counted in ``scalar.ops`` and the operand-shape metrics.
COUNTED_SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__")

# name of a per-layer metric -> span name; ``calls`` counts spans, ``_s``
# sums the inclusive time of the outermost spans of that name.
CALLS = {
    "series.mul.calls": "series.Series.__mul__",
    "series.bimul.calls": "series.BiSeries.__mul__",
    "mobius.apply.calls": "mobius.mob_apply",
    "fgl.log_chi.calls": "fgl.log_chi",
    "qcomb.qmul.calls": "qcomb.QSeries.__mul__",
    "qcomb.tqmul.calls": "qcomb.TQSeries.__mul__",
    "lambda_ring.lambda_t.calls": "lambda_ring.lambda_t",
    "varieties.diagram.calls": "varieties.diagram_check",
    "expr.parse.calls": "expr.parse_expr",
}
DIV_SPANS = ("series.Series.__truediv__", "series.BiSeries.__truediv__")
INCLUSIVE = {
    "scalar.print_s": "scalar.canonical_str",
    "fgl.transport_s": "fgl.f_chi_from_log",
    "fgl.inverse_s": "fgl.fgl_inverse",
    "qcomb.poch_product_s": "qcomb.poch_inf_product",
    "lambda_ring.lambda_t_s": "lambda_ring.lambda_t",
}

_NS = 1e-9


def metric_names() -> list:
    """Every per-layer metric of a traced run, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.errors"]
    names += ["scalar.ops", "scalar.mean_terms", "scalar.rational_share",
              "scalar.den_share", "series.div.calls"]
    return names + list(CALLS) + list(INCLUSIVE) + ["trace.wall_s", "trace.overhead_ratio"]


def unit(name: str) -> str:
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "coeffs" if name.endswith("mean_terms") else "count"


class Tracer:
    def __init__(self):
        self.job = -1
        self.names: list = []
        self._name_ids: dict = {}
        self._name_layer = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list = []
        # escaped exceptions per layer; cli also counts its exit-2 returns
        self.errors = [0] * len(LAYERS)
        # Scalar op count, operand count, operand s-coefficients, ops with
        # a rational operand, ops with an operand that has a denominator
        self.shape = [0, 0, 0, 0, 0]
        self._patches: list = []

    # -- installing --------------------------------------------------------

    def _name_id(self, name: str, layer: int) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._name_layer.append(layer)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, layer: int, count_shape=None):
        sid = self._name_id(name, layer)
        stack, name_layer, errors = self._stack, self._name_layer, self.errors
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_shape is not None:
                count_shape(args)
            parent = stack[-1] if stack else -1
            idx = len(names)
            names.append(sid)
            parents.append(parent)
            jobs.append(tracer.job)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                if parent < 0 or name_layer[names[parent]] != layer:
                    errors[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _shape_counter(self, scalar_cls):
        shape = self.shape

        def count_shape(args):
            shape[0] += 1
            rational = den = False
            for a in args:
                if type(a) is scalar_cls:
                    shape[1] += 1
                    shape[2] += len(a.num[2])
                    rational = rational or a.num[1] != 1
                    den = den or a.den != (1,)
            shape[3] += rational
            shape[4] += den

        return count_shape

    @contextmanager
    def installed(self):
        """Wrap the public calls of every layer for the duration of the block."""
        modules = [importlib.import_module(f"qfgl.{layer}") for layer in LAYERS]
        scalar_cls = modules[0].Scalar
        wrappers = {}
        try:
            for layer, mod in enumerate(modules):
                short = LAYERS[layer]
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if isinstance(obj, types.FunctionType):
                        wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}", layer))
                    elif isinstance(obj, type):
                        for op in OPERATORS:
                            fn = obj.__dict__.get(op)
                            if not isinstance(fn, types.FunctionType):
                                continue
                            counter = (self._shape_counter(scalar_cls)
                                       if obj is scalar_cls and op in COUNTED_SCALAR_OPS
                                       else None)
                            self._patch(obj, op, self._wrap(
                                fn, f"{short}.{attr}.{op}", layer, counter))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "qfgl" or name.startswith("qfgl.")):
                    continue
                for attr, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(mod, attr, hit[1])
            yield self
        finally:
            self.restore()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def count_exit(self, code: int) -> None:
        """Count an exit-2 return of ``qfgl.cli.main`` as a cli error."""
        if code == 2:
            self.errors[LAYERS.index("cli")] += 1

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def mark(self) -> tuple:
        """Span index and counter values at a pass boundary."""
        return len(self.span_name), list(self.errors), list(self.shape)

    def pass_metrics(self, begin: tuple, end: tuple) -> dict:
        """Per-layer metrics of the spans and counts between two marks."""
        lo, hi = begin[0], end[0]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        name_layer = self._name_layer
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p - lo] += ends[i] - starts[i]
        self_ns = [0] * len(LAYERS)
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        for i in range(lo, hi):
            sid = names[i]
            dur = ends[i] - starts[i]
            self_ns[name_layer[sid]] += dur - child[i - lo]
            calls[sid] += 1
            p = parents[i]
            if p < lo or names[p] != sid:
                incl[sid] += dur

        def count(name):
            sid = self._name_ids.get(name)
            return 0 if sid is None else calls[sid]

        def inclusive(name):
            sid = self._name_ids.get(name)
            return 0.0 if sid is None else incl[sid] * _NS

        errors = [b - a for a, b in zip(begin[1], end[1])]
        ops, operands, terms, rational, den = (b - a for a, b in zip(begin[2], end[2]))
        out = {}
        for layer, short in enumerate(LAYERS):
            out[f"{short}.self_s"] = self_ns[layer] * _NS
            out[f"{short}.errors"] = errors[layer]
        out["scalar.ops"] = ops
        out["scalar.mean_terms"] = terms / operands if operands else 0.0
        out["scalar.rational_share"] = rational / ops if ops else 0.0
        out["scalar.den_share"] = den / ops if ops else 0.0
        out["series.div.calls"] = sum(count(n) for n in DIV_SPANS)
        for metric, name in CALLS.items():
            out[metric] = count(name)
        for metric, name in INCLUSIVE.items():
            out[metric] = inclusive(name)
        return out

    def write_spans(self, path) -> None:
        """All spans as gzip'd tab-separated lines, times in ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tjob\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i, (sid, job, t0, t1, p) in enumerate(zip(
                    self.span_name, self.span_job, self.span_start,
                    self.span_end, self.span_parent)):
                fh.write(f"{i}\t{job}\t{names[sid]}\t{t0}\t{t1}\t{p}\n")
