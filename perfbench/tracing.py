"""Spans around the public functions of magbottle's modules.

A :class:`Tracer` wraps every public function of the traced modules, and
the public methods of their public classes, at every binding callers use:
module attributes of every ``magbottle`` module (the modules import names
from each other) and dicts held at module level (the CLI dispatches
through one).  Each call records a span ``(name, start, end, parent,
job)``; spans stay in memory until :meth:`Tracer.write`.

Generator functions are left unwrapped: their work runs while the caller
iterates, so it stays in the caller's span.  Properties and private
helpers are not wrapped either.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "magbottle"
LAYERS = ("model", "polyalg", "normform", "invariants", "dynamics", "analysis", "cli")

#: operators of public classes that count as public methods
_OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")


def _public_functions(module):
    """(qualified name, owner, attribute, function) for each target."""
    layer = module.__name__.rsplit(".", 1)[-1]
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            if not inspect.isgeneratorfunction(obj):
                yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr not in _OPERATORS:
                    continue
                func = member
                if isinstance(member, (classmethod, staticmethod)):
                    func = member.__func__
                if inspect.isfunction(func) and not inspect.isgeneratorfunction(func):
                    yield f"{layer}.{name}.{attr}", obj, attr, member


class Tracer:
    """Installs and removes the wrappers; collects spans and counters.

    ``hooks`` maps a qualified name to ``hook(counts, args, kwargs,
    result)``, called after each call of that function to add to
    ``counts``.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans = []  # (name, start, end, parent, job)
        self.job = None
        self._stack = []  # [span index, time covered by children]
        self._active = defaultdict(int)
        self._restore = []
        # per-name totals: calls, inclusive s (outermost calls), self s
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    # ---------------------------------------------------------------- wrap

    def _wrap(self, name, func):
        tracer = self
        hook = self.hooks.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            outermost = tracer._active[name] == 0
            tracer._active[name] += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._active[name] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, tracer.job)
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[1]
                if outermost:
                    tracer.inclusive[name] += duration
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at every binding."""
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, owner, attr, member in _public_functions(module):
                if inspect.isclass(owner):
                    func = getattr(member, "__func__", member)
                    wrapped = self._wrap(name, func)
                    if isinstance(member, (classmethod, staticmethod)):
                        wrapped = type(member)(wrapped)
                    self._set(owner, attr, wrapped)
                else:
                    originals[id(member)] = (member, self._wrap(name, member))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._set(module, attr, originals[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._restore.append((value, key, item, True))
                            value[key] = originals[id(item)][1]

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr], False))
        setattr(owner, attr, value)

    def remove(self):
        """Put every original binding back."""
        for owner, attr, value, is_item in reversed(self._restore):
            if is_item:
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore = []

    # ------------------------------------------------------------- results

    def reset_totals(self):
        """Zero the per-name totals; the spans are kept."""
        self.calls.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.counts.clear()

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )
