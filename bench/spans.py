"""Spans around the public functions of spinctrl's modules.

A :class:`Tracer` replaces every public function of the layer modules, in
each layer's namespace where the program looks it up, with a wrapper that
records a span: name, start, end, parent span and the benchmark round it
ran in.  Spans stay in memory until :meth:`Tracer.write`.  Nothing in the
program changes; :meth:`Tracer.uninstall` puts the original functions back.
"""

import functools
import importlib
import json
import time
from collections import defaultdict

# Each function is named after the first layer that exports it.
LAYERS = ("_kernels", "linalg", "model", "lindblad", "optim")


def _public_functions(module):
    for name in module.__all__:
        value = getattr(module, name)
        if callable(value) and not isinstance(value, type):
            yield name, value


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, round)
        self.round = -1
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.round)

        functools.update_wrapper(traced, fn, assigned=("__name__", "__doc__"))
        return traced

    def install(self, package="spinctrl"):
        """Wrap every public layer function wherever a layer or the package
        binds it."""
        layers = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, layers):
            for name, fn in _public_functions(module):
                if id(fn) not in wrappers:
                    # metric names start with a letter: "kernels.expm"
                    span = f"{layer.lstrip('_')}.{name}"
                    wrappers[id(fn)] = (fn, self.wrap(span, fn))
        for module in layers + [importlib.import_module(package)]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self, since=0):
        """Per span name: calls, total and self seconds of spans[since:]."""
        spans = self.spans[since:]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= since:
                child_time[parent - since] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "round"],
                 "spans": self.spans},
                fh,
            )
