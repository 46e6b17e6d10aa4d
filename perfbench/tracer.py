"""Span recorder that wraps the package's public functions from outside.

A span is (id, name, start, end, parent id, thread id).  Spans live in
memory and are written out once, when the benchmark ends.  A wrapper
replaces a function in its defining module and in every package module
(and every extra module, such as the benchmark's own) that imported it
by name, so calls through any of those names are seen; the originals
are put back when the tracer is deactivated.

Thread pools: the package's modules create ThreadPoolExecutor by name.
While the tracer is active that name points at a subclass that hands
the span open at pool creation to each worker task, so spans opened on
pool threads take the span that started the pool as parent.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory spans plus counters; activate with ``with tracer.active():``."""

    def __init__(self, package: str, extra_modules=()):
        self.package = package
        self.extra_modules = list(extra_modules)
        self.spans = []  # (id, name, start, end, parent, thread)
        self.counters = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        # (span name, module, attribute, on_return hook)
        self._targets = []
        self._patched = []  # (module, attribute, original) while active
        self._history = []  # every (module, attribute, original) ever patched

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, module, attr: str, on_return=None) -> None:
        """Trace ``module.attr`` as span ``name``.

        on_return(tracer, args, kwargs, result) may add counters.
        """
        self._targets.append((name, module, attr, on_return))

    def _make_wrapper(self, name, fn, on_return):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._trace_parent = tracer.current()

            def submit(self, fn, /, *args, **kwargs):
                parent = self._trace_parent

                def task():
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()

                return super().submit(task)

        return TracedPool

    def _package_modules(self):
        prefix = self.package + "."
        return self.extra_modules + [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]

    def _install(self) -> None:
        modules = self._package_modules()
        for name, module, attr, on_return in self._targets:
            original = getattr(module, attr)
            wrapper = self._make_wrapper(name, original, on_return)
            homes = [module] + [
                m for m in modules if m is not module and getattr(m, attr, None) is original
            ]
            for home in homes:
                self._patched.append((home, attr, original))
                setattr(home, attr, wrapper)
        pool = self._pool_class()
        for m in modules:
            if getattr(m, "ThreadPoolExecutor", None) is concurrent.futures.ThreadPoolExecutor:
                self._patched.append((m, "ThreadPoolExecutor", concurrent.futures.ThreadPoolExecutor))
                setattr(m, "ThreadPoolExecutor", pool)

    def _uninstall(self) -> None:
        self._history.extend(self._patched)
        while self._patched:
            home, attr, original = self._patched.pop()
            setattr(home, attr, original)

    def removed_cleanly(self) -> bool:
        """True when every name the tracer patched holds its original again."""
        return not self._patched and all(
            getattr(home, attr) is original for home, attr, original in self._history
        )

    @contextlib.contextmanager
    def active(self, root: str):
        """Install the wrappers, open a root span, and remove them on exit."""
        self._install()
        try:
            with self.span(root):
                yield self
        finally:
            self._uninstall()

    # -- reduction --------------------------------------------------------

    def layer_stats(self) -> dict:
        """name -> {calls, busy_s, self_s, durations} over all threads.

        busy_s sums span durations over threads; self_s subtracts the
        part of each span's interval that its children cover (children
        running in parallel on pool threads are merged first).
        """
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        stats = {}
        for sid, name, start, end, _, _ in self.spans:
            st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
            dur = end - start
            st["calls"] += 1
            st["busy_s"] += dur
            st["durations"].append(dur)
            st["self_s"] += dur - _covered(children.get(sid, ()), start, end)
        return stats

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [
            {"id": sid, "name": name, "start": start - t0, "end": end - t0,
             "parent": parent, "thread": thread}
            for sid, name, start, end, parent, thread in sorted(self.spans, key=lambda s: s[2])
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
