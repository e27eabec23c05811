"""Per-layer tracing of cevian from outside the package.

Each of the seven modules is a layer.  ``Tracer.installed()`` wraps every
public function of each module (and the private ones in ``SHARED_PRIVATE``),
and the constructor and public methods of each public class, then rebinds
every name in the package that refers to an original (``from .x import f``
bindings included), so calls between modules pass through a wrapper.  Nothing inside ``src/`` changes.

A span opens when a call crosses into a layer from another layer (or from the
benchmark) and closes when it returns; calls inside the same layer are
counted and timed but open no span.  A layer's self time is its spans'
duration minus the time covered by the spans they caused in other layers.
Spans are aggregated as they close, not stored: per layer the number of
spans, self seconds and typed errors raised, plus per-function call counts
and inclusive seconds and a caller-layer -> callee-layer span count.

Two numpy entry points are also counted by calling layer: ``np.cross`` (one
per face plane the oracle builds) and ``np.linalg.solve``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time

LAYERS = ("core_model", "tri_centers", "tet_centers", "tri_metrics",
          "tet_metrics", "coord_oracle", "cli")
# private functions another layer calls directly, wrapped like public ones:
# cli's tetrahedron check builds face planes through oracle._face_plane
SHARED_PRIVATE = {"coord_oracle": ("_face_plane",)}
NUMPY_HOOKS = (("numpy", "cross"), ("numpy.linalg", "solve"))
TRACE_MARKER = "PERFBENCH_TRACE "  # prefixes the summary a traced child prints


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.raised = dict.fromkeys(LAYERS, 0)
        self.fn_calls = {}
        self.fn_s = {}
        self.edges = {}
        self.numpy_calls = {}

    # ------------------------------------------------------------------
    def _wrap(self, layer, qual, fn, error_type):
        stack, perf = self.stack, time.perf_counter
        fn_calls, fn_s = self.fn_calls, self.fn_s
        spans, self_s, raised, edges = self.spans, self.self_s, self.raised, self.edges
        fn_calls[qual] = 0
        fn_s[qual] = 0.0

        def traced(*args, **kwargs):
            t0 = perf()
            if stack and stack[-1][0] == layer:
                try:
                    return fn(*args, **kwargs)
                finally:
                    fn_calls[qual] += 1
                    fn_s[qual] += perf() - t0
            parent = stack[-1][0] if stack else "bench"
            frame = [layer, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                if not hasattr(exc, "_perfbench_layer"):
                    exc._perfbench_layer = layer
                    raised[layer] += 1
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                fn_calls[qual] += 1
                fn_s[qual] += dt
                spans[layer] += 1
                self_s[layer] += dt - frame[1]
                edges[(parent, layer)] = edges.get((parent, layer), 0) + 1
                if stack:
                    stack[-1][1] += dt

        traced.__name__ = getattr(fn, "__name__", qual)
        traced.__qualname__ = getattr(fn, "__qualname__", qual)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _count(self, key, fn):
        stack, counts = self.stack, self.numpy_calls

        def counted(*args, **kwargs):
            top = stack[-1][0] if stack else "bench"
            counts[(top, key)] = counts.get((top, key), 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package for the duration of the block, then restore it."""
        modules = {layer: importlib.import_module(f"cevian.{layer}") for layer in LAYERS}
        package = importlib.import_module("cevian")
        error_type = modules["core_model"].GeometryError
        undo = []

        def patch(owner, name, value):
            undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                         else getattr(owner, name)))
            setattr(owner, name, value)

        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for name, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__ or (
                        name.startswith("_") and name not in SHARED_PRIVATE.get(layer, ())):
                    continue
                if inspect.isfunction(value):
                    wrapped[id(value)] = self._wrap(layer, f"{layer}.{name}", value, error_type)
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    for attr, member in list(vars(value).items()):
                        if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                            patch(value, attr, self._wrap(layer, f"{layer}.{name}.{attr}",
                                                          member, error_type))
        for mod in (package, *modules.values()):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    patch(mod, name, wrapped[id(value)])
        for mod_name, attr in NUMPY_HOOKS:
            owner = importlib.import_module(mod_name)
            patch(owner, attr, self._count(attr, getattr(owner, attr)))
        try:
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    def numpy_count(self, layer, key):
        return self.numpy_calls.get((layer, key), 0)

    def summary(self):
        """Everything recorded, in JSON-friendly form."""
        return {
            "spans": dict(self.spans),
            "self_s": dict(self.self_s),
            "raised": dict(self.raised),
            "fn_calls": dict(self.fn_calls),
            "fn_s": dict(self.fn_s),
            "edges": {f"{a}->{b}": n for (a, b), n in sorted(self.edges.items())},
            "numpy_calls": {f"{a}:{b}": n for (a, b), n in sorted(self.numpy_calls.items())},
        }

    def merge(self, summary):
        """Add a summary recorded in another process (a traced CLI child)."""
        for layer in LAYERS:
            self.spans[layer] += summary["spans"][layer]
            self.self_s[layer] += summary["self_s"][layer]
            self.raised[layer] += summary["raised"][layer]
        for key, n in summary["fn_calls"].items():
            self.fn_calls[key] = self.fn_calls.get(key, 0) + n
        for key, s in summary["fn_s"].items():
            self.fn_s[key] = self.fn_s.get(key, 0.0) + s
        for key, n in summary["edges"].items():
            a, b = key.split("->")
            self.edges[(a, b)] = self.edges.get((a, b), 0) + n
        for key, n in summary["numpy_calls"].items():
            a, b = key.split(":")
            self.numpy_calls[(a, b)] = self.numpy_calls.get((a, b), 0) + n
