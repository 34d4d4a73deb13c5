"""Span tracer that wraps ramlab's public functions from outside the package.

Every public module-level function and every public method of a public class
defined in one of the traced modules is replaced by a wrapper that records a
span (name, start, end, parent span) in memory. A function is replaced under
every name it is bound to in the traced modules, so ``validate_and_index``
imported by name into ``walk_engine`` and ``spectral_lab`` records the same
``graph_core.validate_and_index`` span wherever it is called from. Nothing
under ``src/`` changes; ``uninstall`` restores every original binding.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over the spans of its functions.
"""

import functools
import inspect
import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder. Single-threaded: spans nest by call stack."""

    def __init__(self, modules, work_hooks=None):
        # layer name (last dotted component of the module name) -> module
        self.modules = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        self.work_hooks = work_hooks or {}
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.work = defaultdict(int)
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        hook = self.work_hooks.get(name)
        work = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            if hook is not None:
                work[name] += hook(args, kwargs)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter_ns()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self):
        """Wrap every public function and method, wherever it is bound."""
        wrappers = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def mark(self) -> tuple:
        """Position to pass to ``summary`` to cover only later spans."""
        return len(self.names), dict(self.work)

    def summary(self, since=(0, {})) -> dict:
        """Per-layer self time and calls, per-function inclusive time and
        calls, and work counts, over the spans recorded after ``since``."""
        first, work_before = since
        count = len(self.names)
        child = defaultdict(int)
        for i in range(first, count):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        layer_self = defaultdict(int)
        layer_calls = defaultdict(int)
        fn_total = defaultdict(int)
        fn_calls = defaultdict(int)
        root_total = 0
        for i in range(first, count):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] += dur - child[i]
            layer_calls[layer] += 1
            fn_total[name] += dur
            fn_calls[name] += 1
            if self.parents[i] < 0:
                root_total += dur
        return {
            "spans": count - first,
            "root_s": root_total / 1e9,
            "layer_self_s": {k: layer_self[k] / 1e9 for k in self.modules},
            "layer_calls": {k: layer_calls[k] for k in self.modules},
            "fn_s": {k: v / 1e9 for k, v in fn_total.items()},
            "fn_calls": dict(fn_calls),
            "work": {k: v - work_before.get(k, 0) for k, v in self.work.items()},
        }

    def dump(self, path):
        """Write the recorded spans as JSON (times in ns from the first span)."""
        origin = min(self.starts, default=0)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [[n, s - origin, e - origin, p] for n, s, e, p in
                                 zip(self.names, self.starts, self.ends, self.parents)]},
                      fh)
