"""Spans around the calls into each qdomains module, placed from outside.

install() wraps every public function and lru-cached function that a
qdomains module defines, plus the element classes' constructors and
methods, and rebinds each wrapped object wherever any qdomains module
holds it: the suites, spectral, deform, norms, fock and cli modules bind
many of them with `from ... import ...`, so a wrapper placed only on the
defining module would miss those calls.  The kernel implementation modules are wrapped at
their boundary only, not inside, so the compiled and pure kernels count
the same calls.

A span has a name, a start, an end and a parent.  Self time is the span's
duration minus the time its direct children cover; the aggregate per name
is kept for every span, and spans of at least SPAN_LOG_MIN_S seconds are
kept in memory as (id, parent id, name, start, end) and written out at the
end, so the log stays small however many short calls there are.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
from collections import Counter

from oracles import multinomial

SPAN_LOG_MIN_S = 1e-3

_KERNEL_MODULES = ("qdomains._wordkit", "qdomains._wordkit_py")

# span names for functions that get their own row; every other public
# function is named after its module (the layer)
_SPAN_NAMES = {
    "qpoly_mul": "elements.mul",
    "free_mul": "elements.mul",
    "laurent_mul": "elements.mul",
    "normal_order": "elements.normal_order",
    "polydisk_lift": "elements.lift",
    "ball_lift": "elements.lift",
    "star_product": "deform.star",
    "formal_ball_lift": "deform.formal_lift",
    "normal_order_formal": "deform.formal_lift",
    "bundle_scan": "deform.scan",
    "circle_path": "deform.scan",
    "ray_path": "deform.scan",
    "sigma": "qcombinat.sigma",
}


class Tracer:
    def __init__(self):
        self.stats: dict = {}        # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list = []
        self._stack: list = []       # per open span: [id, child_s]
        self._next_id = 0

    # one span around fn; after(args, kwargs, result) adds counts
    def wrap(self, name, fn, after=None, namer=None):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(args) if namer else name
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                row = stats.get(span_name)
                if row is None:
                    row = stats[span_name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if duration >= SPAN_LOG_MIN_S:
                    spans.append((frame[0], parent, span_name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        """Generator functions: each resumption is a span of the layer."""
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [0, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    duration = clock() - start
                    stack.pop()
                    row = stats.get(name)
                    if row is None:
                        row = stats[name] = [0, 0.0, 0.0]
                    row[1] += duration
                    row[2] += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                yield item

        return wrapper

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": dict(self.counts),
                "spans": [list(s) for s in self.spans]}


def _modules():
    import qdomains
    names = ["qdomains"] + [f"qdomains.{m.name}" for m in pkgutil.iter_modules(qdomains.__path__)]
    out = []
    for name in names:
        # __main__ runs the CLI on import; _mutate is the fault-injection hook
        if name in ("qdomains.__main__", "qdomains._mutate"):
            continue
        try:
            out.append(importlib.import_module(name))
        except ImportError:
            continue   # the compiled kernel is optional
    return out


def _layer(module_name: str) -> str:
    short = module_name.split(".", 1)[1]
    if short in ("_kernels", "_wordkit", "_wordkit_py"):
        return "kernels"
    return short


def install(tracer: Tracer) -> None:
    """Wrap qdomains' public surface in place.  Call once per process."""
    modules = _modules()
    counts = tracer.counts
    replace: dict = {}   # id(original) -> wrapper

    def count_kernel(fn_name):
        def after(args, kwargs, result):
            if fn_name in ("fiber_words", "fiber_inversions"):
                counts["kernels.fiber_words"] += len(result)
            elif fn_name == "mahonian_sum":
                counts["kernels.fiber_words"] += multinomial(args[0])
        return after

    def count_mul(args, kwargs, result):
        counts["elements.mul.terms_in"] += len(args[0].terms) + len(args[1].terms)
        counts["elements.mul.terms_out"] += len(result.terms)

    def count_scan(args, kwargs, result):
        counts["deform.scan.samples"] += len(result.rows)

    def count_fock(args, kwargs, result):
        a, degree = args[0], args[3]
        n = a.n
        counts["fock.matrix_entries"] += (math.comb(degree + n, n)
                                          * math.comb(degree + a.degree() + n, n))

    afters = {"qpoly_mul": count_mul, "free_mul": count_mul, "laurent_mul": count_mul,
              "bundle_scan": count_scan, "op_norm_bounds": count_fock}

    for module in modules:
        if module.__name__ in _KERNEL_MODULES or module.__name__ == "qdomains":
            continue
        layer = _layer(module.__name__)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or id(obj) in replace or not callable(obj):
                continue
            home = getattr(obj, "__module__", "")
            if layer == "kernels":
                # the compiled kernel's functions are builtins, not Python functions
                if home in _KERNEL_MODULES:
                    replace[id(obj)] = tracer.wrap("kernels", obj, after=count_kernel(attr))
                continue
            is_function = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
            if not is_function or home != module.__name__:
                continue
            if inspect.isgeneratorfunction(obj):
                replace[id(obj)] = tracer.wrap_generator(layer, obj)
            elif module.__name__ == "qdomains.suites" and attr == "run_suite":
                replace[id(obj)] = tracer.wrap("suites", obj,
                                               namer=lambda args: f"suites.{args[0]}")
            elif module.__name__ == "qdomains.cli" and attr == "main":
                replace[id(obj)] = tracer.wrap("cli", obj)
            else:
                replace[id(obj)] = tracer.wrap(_SPAN_NAMES.get(attr, layer), obj,
                                               after=afters.get(attr))

    # rebind every reference held in any qdomains module namespace
    for module in modules:
        if module.__name__ in _KERNEL_MODULES:
            continue
        namespace = vars(module)
        for attr, obj in list(namespace.items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                namespace[attr] = wrapper

    # element classes: constructors as <module>.init, other methods as the module
    from qdomains import deform_types, elements
    for module, classes in ((elements, ("QPolynomial", "FreeElement", "LaurentElement")),
                            (deform_types, ("HSeriesElement", "FormalFreeElement"))):
        layer = _layer(module.__name__)
        for cls_name in classes:
            _wrap_class(tracer, getattr(module, cls_name), layer)


# position of the terms argument in each constructor, self included
_TERMS_ARG = {"QPolynomial": 3, "FreeElement": 2, "LaurentElement": 2,
              "HSeriesElement": 3, "FormalFreeElement": 3}
_DUNDERS = ("__add__", "__sub__", "__mul__", "__rmul__", "__eq__", "__hash__")


def _wrap_class(tracer: Tracer, cls, layer: str) -> None:
    counts = tracer.counts
    position = _TERMS_ARG[cls.__name__]

    def count_pruned(args, kwargs, result):
        terms = kwargs["terms"] if "terms" in kwargs else args[position]
        counts[f"{layer}.pruned_terms"] += len(terms) - len(args[0].terms)

    for attr, obj in list(vars(cls).items()):
        if attr == "__init__":
            cls.__init__ = tracer.wrap(f"{layer}.init", obj, after=count_pruned)
        elif isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(layer, obj.__func__)))
        elif inspect.isfunction(obj) and (attr in _DUNDERS or not attr.startswith("_")):
            setattr(cls, attr, tracer.wrap(layer, obj))
