"""Spans around framedual's public functions, kept in memory, and the
per-function calls, inclusive time and self time computed from them.

The tracer wraps functions from outside the package: for every wrapped
function it rebinds each framedual module attribute that holds it, because
cli, duality and serialize import names directly.  Span stacks are kept per
thread; a span opened on a thread with an empty stack (a sweep's pool
worker) takes as parent the innermost span open on the thread that created
the tracer, which is blocked waiting for that worker.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None   # index into the span list, None for a root
    note: float | None   # a per-call figure computed from the arguments


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._restore: list[tuple[object, str, Callable]] = []

    def _open(self) -> tuple[int, int | None]:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home)
            parent = home[-1] if ident != self._home and home else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        return index, parent

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stacks[threading.get_ident()].pop()
                figure = note(*args, **kwargs) if note is not None else None
                self.spans[index] = Span(name, start, end, parent, figure)
        return traced

    def install(self, package: str, targets, notes: dict | None = None) -> None:
        """Wrap each "module.function" of the package, e.g. "frames.classify"."""
        notes = notes or {}
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for target in targets:
            module_name, fn_name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(f"{package}.{module_name}"), fn_name)
            wrapper = self.wrap(target, original, notes.get(target))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - covered(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, time_s (summed durations), self_s (summed self
    times) and note_max (the largest note, when notes were taken)."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "time_s": 0.0, "self_s": 0.0,
                                           "note_max": None})
        entry["calls"] += 1
        entry["time_s"] += span.end - span.start
        entry["self_s"] += own
        if span.note is not None:
            entry["note_max"] = max(span.note, entry["note_max"] or 0.0)
    return out
