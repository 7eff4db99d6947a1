"""Span tracing of the ``godbersen`` layers from outside the program.

``Tracer.install`` wraps every public function defined in a layer module and
patches each ``godbersen`` module namespace that holds the function, so
calls made through ``from .geometry import minkowski_sum`` are seen too.
Each call records a span: name, start, end, parent span and op.  Span
times are CPU nanoseconds of the thread (``thread_time_ns``), on the same
footing as the CPU-second op times of ``run.py``.  ``uninstall`` restores
the originals; untraced runs never install, so they pay nothing.

The value helpers ``rationals`` and ``polynomials`` are not layers: their
time counts as self time of the layer that called them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("halfspaces", "geometry", "linalg", "mixedvol", "sections",
          "inclusion", "concave", "generators", "sweep")
PACKAGE = "godbersen"
ROOT = "bench.op"


def _report_bits(report) -> dict:
    return {"bits": max(max(e.mixed.numerator.bit_length(),
                            e.mixed.denominator.bit_length())
                        for e in report.entries)}


# Sizes read off a traced function's result: name -> result -> counters.
PROBES = {
    "halfspaces.ak_system": lambda r: {"rows": len(r.halfspaces)},
    "geometry.minkowski_sum": lambda r: {"out_facets": len(r.facets)},
    "sections.section_profile": lambda r: {"pieces": len(r.pieces)},
    "mixedvol.godbersen_report": _report_bits,
    "generators.generate": lambda r: {"V": len(r.vertices), "F": len(r.facets)},
}


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: int
    counts: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def root(self, op: int, fn, *args):
        """Run ``fn(*args)`` as op ``op`` under a root span."""
        self._op = op
        return self._wrap(ROOT, fn)(*args)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self._stack, time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1, self._op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.counts = probe(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlaps counted once, parts outside it not at all)."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    own = []
    for s, kids in zip(spans, children):
        covered, cursor = 0, s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, cursor), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own.append(s.duration - covered)
    return own


def subtree_sums(spans: list[Span], own: list[int]) -> list[int]:
    """For each span, the sum of ``own`` over the span and its descendants.
    Summed self times equal the span's duration exactly when its
    descendants nest inside it without overlapping."""
    total = list(own)
    for i in range(len(spans) - 1, -1, -1):
        if spans[i].parent >= 0:
            total[spans[i].parent] += total[i]
    return total
