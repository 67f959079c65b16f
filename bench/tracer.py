"""Span tracing for the benchmark, installed from outside the package.

A Tracer replaces named module attributes of `irmap` with timing wrappers.
Every module that imported the same function object under another name (for
example `features.fold_max_argmax`) is patched too, so calls through an alias
are traced. Spans (name, start, end, parent) are kept in memory and written
out once at the end; a span's self time is its duration minus the time its
child spans cover. Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import types
from collections import defaultdict

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def current_rss_mb() -> float:
    """Resident set size of this process now (not the peak)."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def peak_rss_mb() -> float:
    """Peak resident set size of this process image.

    VmHWM restarts at exec, unlike `ru_maxrss`, which keeps the peak of the
    parent that forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Tracer:
    """In-memory span recorder with per-name self time, calls and counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs, probe=None):
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [index, 0.0]
        self._open.append(frame)
        after = probe(args, kwargs) if probe else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)
            duration = end - start
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if self._open:
                self._open[-1][1] += duration
        if after is not None:
            for key, value in after(result).items():
                self.counts[f"{name}.{key}"] += value
        return result

    def install(self, module, attr: str, name=None, probe=None) -> None:
        """Wrap `module.attr` and every alias of it in loaded irmap modules.

        `name` is the span name, or a function of the call's (args, kwargs)
        returning one; `probe(args, kwargs)` runs before the call and returns
        a function mapping the result to counts.
        """
        original = getattr(module, attr)
        span = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def wrapper(*args, **kwargs):
            label = span(args, kwargs) if callable(span) else span
            return self.call(label, original, args, kwargs, probe)

        wrapper.__wrapped__ = original
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("irmap") and (
                getattr(mod, attr, None) is original
            ):
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write every span as [name, start, end, parent index] JSON rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def span_cost_s() -> float:
    """Seconds one traced call costs beyond the call itself, timed on a no-op.

    Span count times this cost is the tracing overhead of a run: a direct
    difference of traced and untraced iterations is swamped by host noise
    when a run holds only a few iterations. Rounds alternate untraced and
    traced calls; the median round is taken. Probes are not included.
    """
    mod = types.ModuleType("irmap._span_cost")
    mod.noop = lambda: None
    sys.modules[mod.__name__] = mod
    tracer = Tracer()
    calls, costs = 10_000, []
    try:
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(calls):
                mod.noop()
            bare = time.perf_counter() - t0
            tracer.install(mod, "noop")
            t0 = time.perf_counter()
            for _ in range(calls):
                mod.noop()
            costs.append((time.perf_counter() - t0 - bare) / calls)
            tracer.uninstall()
    finally:
        tracer.uninstall()
        del sys.modules[mod.__name__]
    return statistics.median(costs)
