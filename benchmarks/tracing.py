"""Spans and counters recorded from outside viewrank.

``Tracer.install`` replaces the public functions and public methods of every
viewrank module with timing wrappers, in every module namespace that holds
them (``from .synthworld import render_embeddings`` binds a second name that
must be wrapped too).  Each call records a span: name, start, end and the
span that was open when it started.  Spans stay in memory in flat arrays and
are written out once, at the end.  ``only`` limits wrapping to a few named
functions, which is how untraced runs time their stage-level calls, and
``observers`` are called with a wrapped function's arguments to keep counters
that need them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from contextlib import contextmanager

import numpy as np

STAGE = "stage"


class Tracer:
    def __init__(self, only=None, observers=None):
        self.only = None if only is None else set(only)
        self.observers = dict(observers or {})
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = {}
        self._stack: list = []
        self._patched: list = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span, named ``stage.<name>``."""
        idx = self._open(self._id(f"{STAGE}.{name}"))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def high(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        tracer = self
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(tracer, *args, **kwargs)
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- installation ----------------------------------------------------

    def install(self, package) -> "Tracer":
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        replace = {}  # id(original) -> wrapper
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if self._wanted(name):
                        replace[id(obj)] = (obj, self._wrap(name, obj))
                elif inspect.isclass(obj):
                    self._install_methods(short, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._patch(mod, attr, obj, replace[id(obj)][1])
        return self

    def _wanted(self, name: str) -> bool:
        return self.only is None or name in self.only

    def _install_methods(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if not self._wanted(name):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, raw, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, raw, self._wrap(name, raw))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis --------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end."""
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def durations(self, name: str) -> np.ndarray:
        nid, _, start, end = self.arrays()
        if name not in self._ids:
            return np.zeros(0)
        sel = nid == self._ids[name]
        return end[sel] - start[sel]

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time its child spans cover."""
        _, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, p50/p99 ms."""
        nid, _, start, end = self.arrays()
        dur = end - start
        own = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            d = dur[sel]
            out[name] = {
                "calls": int(d.size),
                "s": float(d.sum()),
                "self_s": float(own[sel].sum()),
                "ms.p50": float(np.percentile(d, 50) * 1e3) if d.size else 0.0,
                "ms.p99": float(np.percentile(d, 99) * 1e3) if d.size else 0.0,
            }
        return out

    def layer_self_times(self) -> dict:
        """Self seconds per module (the first part of a span name)."""
        layers: dict = {}
        for name, row in self.summary().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return layers

    def write(self, stem) -> None:
        """``<stem>.npz`` holds the raw spans, ``<stem>.json`` the summary."""
        nid, parent, start, end = self.arrays()
        t0 = float(start.min()) if start.size else 0.0
        np.savez(f"{stem}.npz", name_id=nid, parent=parent, start=start - t0, end=end - t0,
                 names=np.array(self.names))
        with open(f"{stem}.json", "w") as f:
            json.dump({"functions": self.summary(), "layers_self_s": self.layer_self_times(),
                       "counters": self.counters}, f, indent=1, sort_keys=True)
